"""Monte Carlo foraging experiments over school size.

A trial draws a school uniformly inside an initial rectangle, integrates
the dynamics for a fixed horizon against a precomputed scent field, and
classifies the endpoint.  A sweep repeats trials across school sizes
with per-trial seeds derived from a base seed by a fixed 64-bit mix, so
results are reproducible regardless of execution order, worker count or
batch size: the trials of a shard are stepped together as one batch.
"""

import time
from dataclasses import dataclass, field as dc_field, replace
from functools import partial

import numpy as np

from . import tables
from .geometry import Arena, AxisRect, Vec2, contains_many
from .scent import DEFAULT_SPACING, FoodSpec, ScentField, _check_food_in_fluid, solve_field
from .dynamics import ForceBlowUpError, ModelParams, SwarmState, advance
from .metrics import (
    Classifier,
    OutcomeState,
    classify,
    connected_components,
    school_center,
)

_M64 = (1 << 64) - 1
# A sweep steps at most this many trials together in one batch.
SHARD_TRIALS = 64


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & _M64


def trial_seed(base_seed: int, n_fish: int, trial_index: int) -> int:
    """Per-trial RNG seed: splitmix64 chained over (base, N, index)."""
    h = _splitmix64(base_seed & _M64)
    h = _splitmix64(h ^ (n_fish & _M64))
    return _splitmix64(h ^ (trial_index & _M64))


@dataclass(frozen=True)
class TrialConfig:
    """Everything needed to run one trial deterministically."""

    arena: Arena
    food: FoodSpec
    params: ModelParams
    n_fish: int
    horizon: float
    init_region: AxisRect
    classifier: Classifier
    seed: int = 0

    def __post_init__(self):
        if self.n_fish < 2:
            raise ValueError(f"n_fish must be at least 2, got {self.n_fish}")
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        ratio = self.horizon / self.params.dt
        if abs(ratio - round(ratio)) > 1e-6 or round(ratio) < 1:
            raise ValueError(
                f"horizon {self.horizon} is not a whole number of dt={self.params.dt} steps"
            )
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        b = self.arena.bounds
        r = self.init_region
        if not (b.lo.x <= r.lo.x and r.hi.x <= b.hi.x and b.lo.y <= r.lo.y and r.hi.y <= b.hi.y):
            raise ValueError("init_region extends outside the arena bounds")
        for k, ob in enumerate(self.arena.obstacles):
            if r.intersects_interior(ob):
                raise ValueError(f"init_region overlaps obstacle {k}")
        _check_food_in_fluid(self.arena, self.food)
        c, food = self.classifier, self.food.center
        if c.kind == "center-distance" and c.food_center != food:
            raise ValueError(f"classifier.food_center: {c.food_center} is not food.center {food}")

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.params.dt)


@dataclass
class TrialOutcome:
    """Endpoint summary of one trial, as run_trial returns it.

    wall_clock (seconds) and the optional recorded trajectory are
    excluded from equality comparisons.
    """

    outcome: OutcomeState
    final_center: Vec2
    final_components: int
    wall_clock: float = dc_field(compare=False, default=0.0)
    trajectory: list | None = dc_field(compare=False, repr=False, default=None)


@dataclass
class ExperimentResult:
    """Sweep outcomes as two tables of columns.

    results holds one row per school size, in the requested order, keyed
    like the results CSV header (see results_table).  trials holds one row
    per trial in (N, trial index) order: "N", "trial_index", "seed"
    (uint64), and the columns of run_trials.  It is empty when the result is
    read back from a results CSV.
    """

    results: dict
    trials: dict = dc_field(default_factory=dict)


def results_table(counts) -> dict:
    """The results table of a (sizes, 5) int array of N, trials and the failure,
    presuccess and success counts: one column per name of the results CSV
    header, in its order, the last being the float success_probability."""
    table = dict(zip(tables.HEADERS["results"], np.asarray(counts, dtype=int).T))
    table["success_probability"] = table["success_count"] / table["trials"]
    return table


# Quoted, so a command that never steps does not import numpy.random.
def initial_state(config: TrialConfig, rng: "np.random.Generator") -> SwarmState:
    """Draw the starting school: uniform positions, zero velocities."""
    r = config.init_region
    pos = rng.uniform([r.lo.x, r.lo.y], [r.hi.x, r.hi.y], size=(config.n_fish, 2))
    return SwarmState(0.0, pos, np.zeros_like(pos))


def run_trials(config: TrialConfig, seeds, field: ScentField | None = None, *,
               spacing: float = DEFAULT_SPACING, traj_stride: int = 0):
    """Run one trial of config per seed (config.seed is ignored), all stepped
    as one batch.  The field is solved when not supplied.

    Returns ``(columns, wall_clock, samples)``.  columns maps each endpoint
    measure to one row per seed: "outcome" (OutcomeState objects),
    "center" (school centres, (B, 2)) and "components".  Row b equals the
    trial of seeds[b] run alone.  wall_clock is the time of the whole
    batch.  samples[b] lists school b's sampled states when traj_stride > 0;
    otherwise samples is empty.
    """
    if field is None:
        field = solve_field(config.arena, config.food, spacing)
    started = time.perf_counter()
    rngs = [np.random.default_rng(seed) for seed in seeds]
    pos = np.stack([initial_state(config, rng).positions for rng in rngs])
    if not contains_many(config.arena, pos.reshape(-1, 2)).all():
        raise ValueError("initial positions fall outside the fluid region")
    try:
        state, samples = advance(SwarmState(0.0, pos, np.zeros_like(pos)), config.arena,
                                 field, config.params, rngs, config.n_steps,
                                 sample_stride=traj_stride)
    except ForceBlowUpError as e:  # name the seeds, which replay with `run --seed`
        raise ForceBlowUpError(f"trial seed(s) {[seeds[b] for b in e.schools]}: {e}") from e
    wall_clock = time.perf_counter() - started
    columns = {"outcome": classify(state, config.classifier),
               "center": school_center(state),
               "components": connected_components(state, config.classifier.component_delta)}
    return columns, wall_clock, samples


def run_trial(config: TrialConfig, field: ScentField | None = None, *,
              spacing: float = DEFAULT_SPACING,
              traj_stride: int = 0) -> TrialOutcome:
    """Run the trial seeded by config.seed: run_trials on a batch of one."""
    columns, wall_clock, samples = run_trials(config, [config.seed], field, spacing=spacing,
                                              traj_stride=traj_stride)
    return TrialOutcome(columns["outcome"][0], Vec2(*columns["center"][0].tolist()),
                        columns["components"][0].item(), wall_clock,
                        samples[0] if samples else None)


def run_sweep(base: TrialConfig, n_values, trials: int, base_seed: int,
              parallelism: int = 1, *, spacing: float = DEFAULT_SPACING,
              field: ScentField | None = None) -> ExperimentResult:
    """Run `trials` trials at every school size in n_values.

    Trial seeds come from trial_seed(base_seed, N, index), so the result
    is a pure function of (base, n_values, trials, base_seed) regardless
    of parallelism or batch size.  Each N's trials are cut into at least
    `parallelism` contiguous shards of at most SHARD_TRIALS, and each shard
    runs as one run_trials batch, in-process or in the pool.
    """
    n_values = list(n_values)
    if not n_values:
        raise ValueError("n_values must name at least one school size")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    if field is None:
        field = solve_field(base.arena, base.food, spacing)
    n_shards = min(trials, max(parallelism, -(-trials // SHARD_TRIALS)))
    blocks = np.array_split(np.arange(trials), n_shards)
    # uint64, as a seed may exceed 2**63 - 1; tolist() gives the shards ints.
    seeds = np.array([[trial_seed(base_seed, n, j) for j in range(trials)]
                      for n in n_values], dtype=np.uint64)
    configs = [replace(base, n_fish=n) for n in n_values for _ in blocks]
    shard_seeds = [row[block].tolist() for row in seeds for block in blocks]
    run = partial(run_trials, field=field)
    if parallelism > 1:
        # Imported here: the pool's modules cost every process about 2 MB.
        # One worker per shard at most: under fork, all of them start at the first submit.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(parallelism, len(configs))) as pool:
            shards = list(pool.map(run, configs, shard_seeds))
    else:
        shards = list(map(run, configs, shard_seeds))

    columns = {name: np.concatenate([cols[name] for cols, _, _ in shards])
               for name in shards[0][0]}
    # Per N, the count of each outcome, in the results header's order.
    outcome = columns["outcome"].reshape(len(n_values), trials, 1)
    counts = np.count_nonzero(outcome == list(OutcomeState), axis=1)
    return ExperimentResult(
        results=results_table(np.column_stack(
            (n_values, np.full(len(n_values), trials), counts))),
        trials={"N": np.repeat(n_values, trials),
                "trial_index": np.tile(np.arange(trials), len(n_values)),
                "seed": seeds.ravel(), **columns})


def builtin_config(name: str) -> TrialConfig:
    """Named preset configurations.

    * ``config1-left`` / ``config1-right``: open 7x4 tank, food near the
      bottom left/right, school released at the top left, success when
      the school center ends within 1 of the food.
    * ``config2``: 4x4 tank with a baffle hanging from the top wall; the
      school must round it, success when every fish passes x = 2.5.
    * ``config3``: 7x4 tank with the hanging baffle plus a standing block
      further right; three-state outcome on x-extent thresholds 2 and 5.
    """
    if name in ("config1-left", "config1-right"):
        food_center = Vec2(1.5, 0.1) if name == "config1-left" else Vec2(5.5, 0.1)
        return TrialConfig(
            arena=Arena(AxisRect(Vec2(0.0, 0.0), Vec2(7.0, 4.0))),
            food=FoodSpec(center=food_center),
            params=ModelParams(sensitivity=0.5),
            n_fish=10,
            horizon=120.0,
            init_region=AxisRect(Vec2(0.0, 3.5), Vec2(2.0, 4.0)),
            classifier=Classifier("center-distance", food_center=food_center,
                                  success_radius=1.0),
        )
    if name == "config2":
        return TrialConfig(
            arena=Arena(AxisRect(Vec2(0.0, 0.0), Vec2(4.0, 4.0)),
                        (AxisRect(Vec2(2.0, 2.5), Vec2(2.5, 4.0)),)),
            food=FoodSpec(center=Vec2(3.5, 0.1)),
            params=ModelParams(sensitivity=2.0),
            n_fish=10,
            horizon=60.0,
            init_region=AxisRect(Vec2(1.0, 3.5), Vec2(2.0, 4.0)),
            classifier=Classifier("min-x-threshold", right_threshold=2.5),
        )
    if name == "config3":
        return TrialConfig(
            arena=Arena(AxisRect(Vec2(0.0, 0.0), Vec2(7.0, 4.0)),
                        (AxisRect(Vec2(2.0, 2.5), Vec2(2.5, 4.0)),
                         AxisRect(Vec2(4.5, 0.0), Vec2(5.0, 1.5)))),
            food=FoodSpec(center=Vec2(6.0, 0.1)),
            params=ModelParams(sensitivity=2.0),
            n_fish=10,
            horizon=200.0,
            init_region=AxisRect(Vec2(1.0, 3.5), Vec2(2.0, 4.0)),
            classifier=Classifier("band-three-state", left_threshold=2.0,
                                  right_threshold=5.0),
        )
    raise ValueError(
        f"unknown builtin config {name!r} (expected config1-left, config1-right, "
        "config2 or config3)"
    )


def write_results_csv(result: ExperimentResult, path):
    """One row per school size with outcome counts."""
    tables.write(path, "results", [result.results.values()])


def read_results_csv(path) -> ExperimentResult:
    """The results table of a results CSV, success_probability recomputed.
    Raises ValueError unless each row's counts are integers, with trials >= 1
    and nonnegative outcome counts that sum to trials."""
    counts = tables.read(path, "results")[:, :5].astype(int)
    # No count above trials, so the int64 sum cannot wrap round to trials.
    if ((counts[:, 1] < 1).any() or (counts[:, 2:] > counts[:, 1:2]).any()
            or (counts[:, 2:].sum(axis=1) != counts[:, 1]).any()):
        raise ValueError("results CSV counts must be integers, with trials >= 1 and "
                         "nonnegative outcome counts that sum to trials")
    return ExperimentResult(results=results_table(counts))


def write_trials_csv(result: ExperimentResult, path):
    """One row per trial with its seed and endpoint summary."""
    t = result.trials
    tables.write(path, "trials", [(t["N"], t["trial_index"], t["seed"], t["outcome"],
                                   *t["center"].T, t["components"])] if t else [])


def write_trajectory_csv(samples, path):
    """Sampled states as one row per (time, fish)."""
    tables.write(path, "trajectory", (
        (np.full(s.n_fish, float(s.time)), np.arange(s.n_fish), *s.positions.T,
         *s.velocities.T) for s in samples))


def read_trajectory_csv(path):
    """Rebuild sampled states from a trajectory CSV, whose rows may come in
    any order.  Raises ValueError unless each frame holds the particle ids
    0..N-1 once each."""
    rows = tables.read(path, "trajectory")
    rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    times, starts = np.unique(rows[:, 0], return_index=True)
    frames = np.split(rows, starts[1:])
    for t, frame in zip(times.tolist(), frames):
        if not np.array_equal(frame[:, 1], np.arange(len(frame))):
            raise ValueError(f"trajectory CSV particle ids at t={t} must be the "
                             f"integers 0..{len(frame) - 1}, each once")
    return [SwarmState(t, frame[:, 2:4].copy(), frame[:, 4:].copy())
            for t, frame in zip(times.tolist(), frames)]
