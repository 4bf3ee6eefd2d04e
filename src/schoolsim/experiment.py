"""Monte Carlo foraging experiments over school size.

A trial draws a school uniformly inside an initial rectangle, integrates
the dynamics for a fixed horizon against a precomputed scent field, and
classifies the endpoint.  A sweep repeats trials across school sizes
with per-trial seeds derived from a base seed by a fixed 64-bit mix, so
results are reproducible regardless of execution order, worker count or
batch size: the trials of a shard are stepped together as one batch.
"""

import csv
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field, replace
from functools import partial

import numpy as np

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

RESULTS_CSV_HEADER = ["N", "trials", "failure_count", "presuccess_count",
                      "success_count", "success_probability"]
TRIALS_CSV_HEADER = ["N", "trial_index", "seed", "outcome",
                     "final_center_x", "final_center_y", "components"]
TRAJECTORY_CSV_HEADER = ["t", "particle_id", "x", "y", "vx", "vy"]

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

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.params.dt)


@dataclass
class TrialOutcome:
    """Endpoint summary of one trial.

    wall_clock (seconds) and the optional recorded trajectory are
    excluded from equality comparisons.
    """

    outcome: OutcomeState
    final_center: Vec2
    final_components: int
    wall_clock: float = dc_field(compare=False, default=0.0)
    trajectory: list | None = dc_field(compare=False, repr=False, default=None)


@dataclass(frozen=True)
class SweepPoint:
    """Outcome counts for one school size."""

    n_fish: int
    trials: int
    failure_count: int
    presuccess_count: int
    success_count: int

    @property
    def success_probability(self) -> float:
        return self.success_count / self.trials


@dataclass(frozen=True)
class TrialRecord:
    """Per-trial line of a sweep."""

    n_fish: int
    trial_index: int
    seed: int
    outcome: OutcomeState
    final_center: Vec2
    components: int


@dataclass
class ExperimentResult:
    """Aggregated sweep outcomes, ordered by the requested school sizes."""

    points: list
    records: list

    def point_for(self, n_fish: int) -> SweepPoint:
        for pt in self.points:
            if pt.n_fish == n_fish:
                return pt
        raise KeyError(f"no sweep point for N={n_fish}")


def initial_state(config: TrialConfig, rng: np.random.Generator) -> SwarmState:
    """Draw the starting school: uniform positions, zero velocities."""
    r = config.init_region
    pos = rng.uniform([r.lo.x, r.lo.y], [r.hi.x, r.hi.y], size=(config.n_fish, 2))
    return SwarmState(0.0, pos, np.zeros_like(pos))


def run_trials(config: TrialConfig, seeds, field: ScentField | None = None, *,
               spacing: float = DEFAULT_SPACING,
               traj_stride: int = 0) -> list[TrialOutcome]:
    """Run one trial of config per seed (config.seed is ignored), all stepped
    as one batch.  Each outcome equals that of its trial run alone; its
    wall_clock is the time of the whole batch.  The field is solved when
    not supplied; with traj_stride > 0 each outcome carries sampled states.
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
    ends = zip(classify(state, config.classifier), school_center(state).tolist(),
               connected_components(state, config.classifier.component_delta).tolist())
    return [TrialOutcome(outcome, Vec2(*center), components, wall_clock,
                         samples[b] if traj_stride > 0 else None)
            for b, (outcome, center, components) in enumerate(ends)]


def run_trial(config: TrialConfig, field: ScentField | None = None, *,
              spacing: float = DEFAULT_SPACING,
              traj_stride: int = 0) -> TrialOutcome:
    """Run the trial seeded by config.seed: run_trials on a batch of one."""
    return run_trials(config, [config.seed], field, spacing=spacing,
                      traj_stride=traj_stride)[0]


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
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    if field is None:
        field = solve_field(base.arena, base.food, spacing)
    n_shards = min(trials, max(parallelism, -(-trials // SHARD_TRIALS)))
    blocks = np.array_split(np.arange(trials), n_shards)
    configs = [replace(base, n_fish=n) for n in n_values for _ in blocks]
    seeds = [[trial_seed(base_seed, n, j) for j in block.tolist()]
             for n in n_values for block in blocks]
    run = partial(run_trials, field=field)
    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            shards = list(pool.map(run, configs, seeds))
    else:
        shards = list(map(run, configs, seeds))

    points, records = [], []
    for k, n in enumerate(n_values):
        outs = [o for shard in shards[k * n_shards:(k + 1) * n_shards] for o in shard]
        counts = Counter(o.outcome for o in outs)
        records += [TrialRecord(n, j, trial_seed(base_seed, n, j), o.outcome,
                                o.final_center, o.final_components)
                    for j, o in enumerate(outs)]
        points.append(SweepPoint(
            n_fish=n, trials=trials,
            failure_count=counts[OutcomeState.FAILURE],
            presuccess_count=counts[OutcomeState.PRESUCCESS],
            success_count=counts[OutcomeState.SUCCESS],
        ))
    return ExperimentResult(points=points, records=records)


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
    shared = dict(attraction=1.0, alignment=1.0, avoidance=1.0, p=3.0, q=5.0,
                  P=3.0, Q=5.0, r=0.1, R=0.2, noise=0.001, vmax=0.8, dt=0.01)
    if name in ("config1-left", "config1-right"):
        food_center = Vec2(1.5, 0.1) if name == "config1-left" else Vec2(5.5, 0.1)
        return TrialConfig(
            arena=Arena(AxisRect(Vec2(0.0, 0.0), Vec2(7.0, 4.0))),
            food=FoodSpec(center=food_center),
            params=ModelParams(sensitivity=0.5, **shared),
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
            params=ModelParams(sensitivity=2.0, **shared),
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
            params=ModelParams(sensitivity=2.0, **shared),
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
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(RESULTS_CSV_HEADER)
        for pt in result.points:
            out.writerow([pt.n_fish, pt.trials, pt.failure_count, pt.presuccess_count,
                          pt.success_count, repr(pt.success_probability)])


def read_results_csv(path) -> ExperimentResult:
    """Rebuild sweep points (without per-trial records) from a results CSV."""
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        if header != RESULTS_CSV_HEADER:
            raise ValueError(f"not a results CSV (header {header})")
        points = [SweepPoint(int(r[0]), int(r[1]), int(r[2]), int(r[3]), int(r[4]))
                  for r in rd]
    return ExperimentResult(points=points, records=[])


def write_trials_csv(result: ExperimentResult, path):
    """One row per trial with its seed and endpoint summary."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(TRIALS_CSV_HEADER)
        for rec in result.records:
            out.writerow([rec.n_fish, rec.trial_index, rec.seed, rec.outcome.value,
                          repr(rec.final_center.x), repr(rec.final_center.y),
                          rec.components])


def write_trajectory_csv(samples, path):
    """Sampled states as one row per (time, fish)."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(TRAJECTORY_CSV_HEADER)
        # csv writes a float as its repr(), the text each field has always had.
        for state in samples:
            t = float(state.time)
            out.writerows([t, i, *p, *v] for i, (p, v) in enumerate(
                zip(state.positions.tolist(), state.velocities.tolist())))


def read_trajectory_csv(path):
    """Rebuild sampled states from a trajectory CSV."""
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        if header != TRAJECTORY_CSV_HEADER:
            raise ValueError(f"not a trajectory CSV (header {header})")
        frames = {}
        for r in rd:
            t = float(r[0])
            frames.setdefault(t, []).append((int(r[1]), float(r[2]), float(r[3]),
                                             float(r[4]), float(r[5])))
    samples = []
    for t in sorted(frames):
        rows = sorted(frames[t])
        pos = np.array([[x, y] for _, x, y, _, _ in rows])
        vel = np.array([[vx, vy] for _, _, _, vx, vy in rows])
        samples.append(SwarmState(t, pos, vel))
    return samples
