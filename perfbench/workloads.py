"""The benchmark's workloads, their output checks and their layer probes.

Every workload calls only public functions of schoolsim, in the order the
CLI calls them: parse a config file, solve the scent field, run a trial,
write the CSVs, render the SVGs.  A run repeats the workload body for
the requested number of seconds and reports the median body time.  It times
a batch of set-ups before the first body and after each body, and reports
the mean set-up time.  Each body works on the same inputs, so its outputs
must match the first body's byte for byte, and at the default seed the
seed-commit digests as well.

A traced run times two untraced and two traced bodies (their ratio is the
tracing overhead), then probes the layers: a trial stepped through the public
``step()`` with a span per step, and the kernels timed on states sampled
along the way.  Per-layer numbers are computed from the spans.
"""

import hashlib
import json
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from schoolsim.config import parse_config
from schoolsim.dynamics import EPS_INSIDE, step, total_forces
from schoolsim.experiment import initial_state, run_trial, write_trajectory_csv
from schoolsim.geometry import clamp_many, contains_many, ray_hits_many
from schoolsim.metrics import (DEFAULT_COMPONENT_DELTA, classify, connected_components,
                               school_center)
from schoolsim.plots import render_heatmap, render_trajectories, write_svg
from schoolsim.scent import (CONTRACT_RTOL, sample_gradient_many, solve_field,
                             write_field_csv)

from spans import NullTracer, Tracer

BENCH_DIR = Path(__file__).resolve().parent
CONFIG_DIR = BENCH_DIR / "configs"
DIGESTS_PATH = BENCH_DIR / "digests.json"

# The c07 base seed.  The reference digests were recorded at it.
DEFAULT_SEED = 1234
LONG_N = 10
TRAJ_STRIDE = 10
# decay * sum(U) must equal sum(f) to this relative tolerance (as in c02).
CONSERVATION_RTOL = 1e-8
# The kernel probe times each kernel PROBE_REPEATS times on each of about
# PROBE_STATES states sampled evenly along a stepped trial.
PROBE_STATES = 120
PROBE_REPEATS = 3
ENDPOINT_REPEATS = 200
MAX_SETUP_BATCH = 1000


@dataclass(frozen=True)
class Scale:
    """Input size of a run.  FULL is the benchmark; the tests use a tiny one."""

    overrides: tuple = ()           # (dotted path, value) pairs for every config
    # A set-up batch repeats the set-up until setup_seconds have been timed
    # (at least once, at most MAX_SETUP_BATCH times).
    setup_seconds: float = 0.25


FULL = Scale()


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def expected_digests(workload: str, seed: int, scale: Scale) -> dict:
    """Seed-commit digests of the outputs, where the inputs are the recorded ones.

    field_solve has no randomness, so its digest holds at every seed.
    """
    if scale != FULL or (workload != "field_solve" and seed != DEFAULT_SEED):
        return {}
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)[workload]


class Checks:
    """Counts operations (trials, solves, output checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, name: str, ok, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check failed: {name}" + (f": {detail}" if detail else ""))

    def guarded(self, stage: str, ops: int, fn, *args):
        """Call fn(*args).  If it raises, all `ops` operations of the stage
        count as attempted and failed, and None is returned."""
        attempted, failed = self.attempted, self.failed
        try:
            return fn(*args)
        except Exception as exc:
            traceback.print_exc()
            self.attempted, self.failed = attempted + ops, failed + ops
            self.failures.append(f"{stage} raised {type(exc).__name__}: {exc}")
            return None


def median_us(tracer, name, parent):
    return statistics.median(tracer.durations(name, parent)) * 1e6


class Workload:
    """One workload: set-up, body, output checks and (traced) layer probe."""

    name = ""
    stepping = True
    setup_solves = 1

    def __init__(self, seed: int, scale: Scale, work_dir: Path, expected: dict):
        self.seed = seed
        self.scale = scale
        self.work_dir = work_dir
        self.expected = expected    # output file -> sha256 it must have
        self.digests = {}           # output file -> sha256 of the first body
        self.checks = Checks()
        self.fields = {}            # arena label -> solved field, for checks

    # -- shared layer calls and checks --------------------------------------

    def parse(self, tracer, label):
        with tracer.span("config.parse_config"):
            return parse_config(CONFIG_DIR / f"{label}.json", dict(self.scale.overrides))

    def solve(self, tracer, label, spec):
        with tracer.span(f"scent.solve_field/{label}"):
            fld = solve_field(spec.trial.arena, spec.trial.food, spacing=spec.spacing)
        self.fields[label] = (fld, spec.trial.food.decay)
        return fld

    def check_fields(self):
        for label, (fld, decay) in self.fields.items():
            total_f = fld.source[fld.fluid].sum()
            off = abs(decay * fld.values[fld.fluid].sum() / total_f - 1.0) if total_f > 0 else math.inf
            self.checks.check(
                f"solve {label}",
                fld.residual <= CONTRACT_RTOL and off <= CONSERVATION_RTOL,
                f"residual {fld.residual:.3e} (limit {CONTRACT_RTOL}), "
                f"conservation off by {off:.3e} (limit {CONSERVATION_RTOL})")
        self.fields = {}

    def check_file(self, fname):
        """The output matches the recorded digest, or else the first body's."""
        digest = sha256(self.work_dir / fname)
        first = self.digests.setdefault(fname, digest)
        ref = self.expected.get(fname, first)
        self.checks.check(f"{fname} digest", digest == ref, f"sha256 {digest}, expected {ref}")

    def setup_metrics(self, tracer):
        """config.parse_s: the median over set-ups of their total parse time."""
        out = {}
        setups = [s[0] for s in tracer.spans if s[1] == "bench.setup"]
        out["config.parse_s"] = statistics.median(
            sum(tracer.durations("config.parse_config", sid)) for sid in setups)
        return out

    def scent_metrics(self, tracer, fields):
        out = {}
        for label, fld in fields.items():
            out[f"scent.solve_s.{label}"] = statistics.median(
                tracer.durations(f"scent.solve_field/{label}"))
            out[f"scent.cg_iters.{label}"] = fld.iterations
            out[f"scent.fluid_cells.{label}"] = int(fld.fluid.sum())
        return out

    # -- per workload ---------------------------------------------------------

    def setup(self, tracer):
        raise NotImplementedError

    def body(self, tracer):
        raise NotImplementedError

    def check_body(self, out):
        raise NotImplementedError

    def probe(self, tracer, out) -> dict:
        raise NotImplementedError


class LongTrial(Workload):
    """One config3 trial at N=10 with a sampled trajectory, its CSV and its SVG."""

    name = "long_trial"
    body_ops = 3

    def setup(self, tracer):
        self.spec = self.parse(tracer, "config3")
        self.field = self.solve(tracer, "config3", self.spec)
        self.trial = replace(self.spec.trial, n_fish=LONG_N, seed=self.seed)

    def work(self, out):
        return self.trial.n_steps

    def body(self, tracer):
        with tracer.span("experiment.run_trial/n10"):
            out = run_trial(self.trial, self.field, spacing=self.spec.spacing,
                            traj_stride=TRAJ_STRIDE)
        with tracer.span("experiment.write_trajectory_csv"):
            write_trajectory_csv(out.trajectory, self.work_dir / "trajectory.csv")
        with tracer.span("plots.render_trajectories"):
            svg = render_trajectories(out.trajectory, arena=self.trial.arena,
                                      food_center=self.trial.food.center)
        with tracer.span("plots.write_svg"):
            write_svg(svg, self.work_dir / "trajectories.svg", force=True)
        return out

    def check_body(self, out):
        samples = out.trajectory
        n_steps = self.trial.n_steps
        expect = n_steps // TRAJ_STRIDE + 1 + (n_steps % TRAJ_STRIDE != 0)
        pos = np.stack([s.positions for s in samples])
        self.checks.check(
            "trial N=10",
            len(samples) == expect and np.isfinite(pos).all()
            and all(contains_many(self.trial.arena, p).all() for p in pos)
            and classify(samples[-1], self.trial.classifier) == out.outcome,
            f"{len(samples)} samples (expected {expect}); every position must be "
            "finite and in the fluid")
        self.check_file("trajectory.csv")
        svg = (self.work_dir / "trajectories.svg").read_text()
        particles = svg.count('class="particle"')
        self.checks.check("trajectories.svg",
                          svg.endswith("</svg>\n") and particles == 4 * LONG_N,
                          f"{particles} particles drawn, expected {4 * LONG_N}")

    def probe(self, tracer, result):
        out = self.setup_metrics(tracer)
        out.update(self.scent_metrics(tracer, {"config3": self.field}))
        out["experiment.trial_s.p50.n10"] = statistics.median(
            tracer.durations("experiment.run_trial/n10"))
        out["experiment.traj_csv_s"] = statistics.median(
            tracer.durations("experiment.write_trajectory_csv"))
        out["plots.traj_svg_s"] = statistics.median(
            tracer.durations("plots.render_trajectories")) + statistics.median(
            tracer.durations("plots.write_svg"))
        final = probe_stepping(tracer, self.trial, self.field, out)
        self.checks.check("stepped trial N=10 equals run_trial",
                          np.array_equal(final.positions, result.trajectory[-1].positions))
        out["metrics.endpoint_us"] = probe_endpoint(tracer, final, self.trial.classifier)
        out["geometry.faces"] = n_faces(self.trial.arena)
        return out


FIELD_ARENAS = ("config1-left", "config2", "config3", "config2-fine")


class FieldSolve(Workload):
    """Scent solves of three arenas at h=0.02 and config2 at h=0.01, then the
    config2 field CSV and heatmap.  No randomness: the seed is ignored."""

    name = "field_solve"
    stepping = False
    setup_solves = 0
    body_ops = len(FIELD_ARENAS) + 2

    def setup(self, tracer):
        self.specs = {label: self.parse(tracer, label) for label in FIELD_ARENAS}

    def work(self, fields):
        return sum(int(f.fluid.sum()) for f in fields.values())

    def body(self, tracer):
        fields = {label: self.solve(tracer, label, spec) for label, spec in self.specs.items()}
        fld = fields["config2"]
        with tracer.span("scent.write_field_csv"):
            write_field_csv(fld, self.work_dir / "field.csv")
        with tracer.span("plots.render_heatmap"):
            svg = render_heatmap(fld)
        with tracer.span("plots.write_svg"):
            write_svg(svg, self.work_dir / "heatmap.svg", force=True)
        return fields

    def check_body(self, fields):
        self.check_fields()
        self.check_file("field.csv")
        svg = (self.work_dir / "heatmap.svg").read_text()
        self.checks.check("heatmap.svg", svg.endswith("</svg>\n") and "<rect" in svg)

    def probe(self, tracer, fields):
        out = self.setup_metrics(tracer)
        out.update(self.scent_metrics(tracer, fields))
        out["scent.csv_write_s"] = statistics.median(tracer.durations("scent.write_field_csv"))
        out["plots.heatmap_s"] = statistics.median(
            tracer.durations("plots.render_heatmap")) + statistics.median(
            tracer.durations("plots.write_svg"))
        return out


WORKLOADS = {w.name: w for w in (LongTrial, FieldSolve)}


def probe_stepping(tracer, cfg, fld, out):
    """Step one trial through step() with a span per step, timing the kernels
    on every few states along the way.  Adds the dynamics, geometry and scent
    kernel metrics for N = cfg.n_fish to `out`; returns the final state.

    The kernels are timed between the steps, not after the trial, so that
    both see the same machine speed and the derived overheads stay
    meaningful on a machine whose speed drifts."""
    n, p, arena = cfg.n_fish, cfg.params, cfg.arena
    rng = np.random.default_rng(cfg.seed)
    state = initial_state(cfg, rng)
    stride = max(1, cfg.n_steps // PROBE_STATES)
    # Noise for the clamp input comes from its own generator, so the probe
    # leaves the trial's random stream alone.
    noise_rng = np.random.default_rng(0)
    sd = math.sqrt(p.dt)
    with tracer.span(f"bench.steps.n{n}") as steps:
        for k in range(cfg.n_steps):
            if k % stride == 0:
                pos, vel = state.positions, state.velocities
                for _ in range(PROBE_REPEATS):
                    with tracer.span("dynamics.total_forces"):
                        total_forces(pos, vel, arena, fld, p)
                    with tracer.span("geometry.ray_hits_many"):
                        ray_hits_many(arena, pos, vel)
                    with tracer.span("scent.sample_gradient_many"):
                        sample_gradient_many(fld, pos)
                    with tracer.span("dynamics.noise"):
                        dw = noise_rng.normal(0.0, sd, size=pos.shape)
                    proposal = pos + p.dt * vel + p.noise * dw
                    with tracer.span("geometry.clamp_many"):
                        clamp_many(arena, proposal, EPS_INSIDE)
            with tracer.span("dynamics.step"):
                state = step(state, arena, fld, p, rng)

    sid = steps[0]
    step_s = tracer.durations("dynamics.step", sid)
    step_us = float(np.percentile(step_s, 50)) * 1e6
    forces = median_us(tracer, "dynamics.total_forces", sid)
    ray = median_us(tracer, "geometry.ray_hits_many", sid)
    sample = median_us(tracer, "scent.sample_gradient_many", sid)
    noise = median_us(tracer, "dynamics.noise", sid)
    clamp = median_us(tracer, "geometry.clamp_many", sid)
    out.update({
        f"dynamics.step_us.p50.n{n}": step_us,
        f"dynamics.step_us.p99.n{n}": float(np.percentile(step_s, 99)) * 1e6,
        f"dynamics.forces_us.n{n}": forces,
        f"dynamics.noise_us.n{n}": noise,
        f"dynamics.overhead_us.n{n}": step_us - forces - clamp - noise,
        f"dynamics.pair_us.n{n}": forces - ray - sample,
        f"geometry.ray_us.n{n}": ray,
        f"geometry.clamp_us.n{n}": clamp,
        f"scent.sample_us.n{n}": sample,
    })
    return state


def n_faces(arena):
    """Sides of the tank and of its obstacles: the faces a ray is cast against."""
    return 4 * (1 + len(arena.obstacles))


def probe_endpoint(tracer, state, classifier):
    """Median µs of the endpoint measurements a trial ends with."""
    with tracer.span("bench.endpoint") as parent:
        for _ in range(ENDPOINT_REPEATS):
            with tracer.span("metrics.endpoint"):
                classify(state, classifier)
                connected_components(state, DEFAULT_COMPONENT_DELTA)
                school_center(state)
    return median_us(tracer, "metrics.endpoint", parent[0])


@dataclass
class Report:
    """What one run measured and checked."""

    workload: str
    seed: int
    trace: bool
    metrics: dict = field(default_factory=dict)   # name -> value
    setup_s: list = field(default_factory=list)
    wall_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    tracer: object = None


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir: Path,
                 scale: Scale = FULL, expected: dict | None = None) -> Report:
    """Run one workload and return its end-to-end (untraced) or per-layer
    (traced) metrics together with the check counts."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    work_dir.mkdir(parents=True, exist_ok=True)
    if expected is None:
        expected = expected_digests(name, seed, scale)
    wl = WORKLOADS[name](seed, scale, work_dir, expected)
    checks = wl.checks
    tracer = Tracer(f"{name}-{seed}") if trace else NullTracer()
    report = Report(name, seed, trace, tracer=tracer)

    def setup():
        wl.setup(tracer)
        return True

    def body(tr):
        t0 = time.perf_counter()
        out = checks.guarded("body", wl.body_ops, wl.body, tr)
        wall = time.perf_counter() - t0
        if out is not None:
            checks.guarded("output checks", wl.body_ops, wl.check_body, out)
        return out, wall

    def setup_batch():
        """Set up once or more; the mean time per set-up is one sample of setup_s."""
        timed = []
        while not timed or (sum(timed) < scale.setup_seconds and len(timed) < MAX_SETUP_BATCH):
            t0 = time.perf_counter()
            with tracer.span("bench.setup"):
                ok = checks.guarded("set-up", wl.setup_solves + wl.body_ops, setup)
            timed.append(time.perf_counter() - t0)
            if not ok:
                return False
            wl.check_fields()
        report.setup_s.append(statistics.fmean(timed))
        return True

    # A set-up batch runs before the first body and after every body, so that
    # set-up is timed across the whole run, as the bodies are.
    ready = setup_batch()
    if ready and not trace:
        deadline = time.perf_counter() + seconds
        while True:
            out, wall = body(NullTracer())
            if out is None or not setup_batch():
                break
            report.wall_s.append(wall)
            work = wl.work(out)
            # Another body is started only if it is expected to end less than
            # half a body past the deadline, so a run lasts about `seconds`.
            if time.perf_counter() + wall / 2 >= deadline:
                break
        if report.wall_s:
            wall = statistics.median(report.wall_s)
            report.metrics = {
                "setup_s": statistics.fmean(report.setup_s),
                "wall_s": wall,
                "work_per_s": work / wall,
                "peak_rss_mb": peak_rss_mb(),
            }
    elif ready:
        # Untraced, traced, traced, untraced: a linear drift in machine speed
        # cancels out of the tracing overhead.
        untraced, traced = [], []
        for tr in (NullTracer(), tracer, tracer, NullTracer()):
            with tr.span("bench.body"):
                out, wall = body(tr)
            (traced if tr is tracer else untraced).append(wall)
            if out is None or not setup_batch():
                break
        else:
            with tracer.span("bench.probe"):
                layers = checks.guarded("probe", 1, wl.probe, tracer, out)
            if layers is not None:
                layers["trace_overhead_frac"] = sum(traced) / sum(untraced) - 1.0
                report.wall_s = untraced + traced
                report.metrics = layers

    report.attempted, report.failed = checks.attempted, checks.failed
    report.failures = checks.failures
    report.digests = wl.digests
    if report.metrics and not trace:
        report.metrics["ok_frac"] = 1.0 - report.failed / max(report.attempted, 1)
    return report


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
