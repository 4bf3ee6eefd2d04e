"""Trial execution, seeded sweeps, builtin presets, CSV round trips."""

import dataclasses
import hashlib
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schoolsim.dynamics import ForceBlowUpError, ModelParams
from schoolsim.experiment import (SHARD_TRIALS, TrialConfig, builtin_config,
                                  initial_state, read_results_csv,
                                  read_trajectory_csv, run_sweep, run_trial,
                                  run_trials, trial_seed, write_results_csv,
                                  write_trajectory_csv, write_trials_csv)
from schoolsim.geometry import AxisRect, Vec2
from schoolsim.metrics import OutcomeState
from schoolsim.plots import render_success_curve
from schoolsim.scent import solve_field


def coarse_field(config, spacing=0.05):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve_field(config.arena, config.food, spacing)


def endpoint(columns, k):
    """Row k of the endpoint columns: outcome, centre bits and components."""
    return (columns["outcome"][k], columns["center"][k].tobytes(),
            columns["components"][k].item())


def endpoint_alone(out):
    """The same triple for a TrialOutcome."""
    return (out.outcome, np.array([out.final_center.x, out.final_center.y]).tobytes(),
            out.final_components)


# -------------------------------------------------------------------- seeding

def test_seed_mix_reference_values():
    # frozen outputs of the documented 64-bit mix
    assert trial_seed(0, 2, 0) == 15415986080105920549
    assert trial_seed(1234, 5, 7) == 3155505882073521620
    assert trial_seed(2**64 - 1, 50, 199) == 15076732114111693872
    assert trial_seed(1234, 2, 0) == 6521822301592808774


def test_seed_mix_is_injective_in_practice():
    seeds = {trial_seed(1234, n, j) for n in range(2, 41) for j in range(200)}
    assert len(seeds) == 39 * 200


# ------------------------------------------------------------------- builtins

def test_builtin_presets_match_published_setups():
    c1l = builtin_config("config1-left")
    assert (c1l.food.center.x, c1l.food.center.y) == (1.5, 0.1)
    assert c1l.params.sensitivity == 0.5
    assert c1l.horizon == 120.0
    assert c1l.arena.bounds.hi.x == 7.0 and c1l.arena.bounds.hi.y == 4.0
    assert not c1l.arena.obstacles
    assert c1l.init_region == AxisRect(Vec2(0.0, 3.5), Vec2(2.0, 4.0))
    assert c1l.classifier.kind == "center-distance"
    assert c1l.classifier.success_radius == 1.0

    c1r = builtin_config("config1-right")
    assert (c1r.food.center.x, c1r.food.center.y) == (5.5, 0.1)
    assert c1r.classifier.food_center.x == 5.5

    c2 = builtin_config("config2")
    assert (c2.food.center.x, c2.food.center.y) == (3.5, 0.1)
    assert c2.params.sensitivity == 2.0
    assert c2.horizon == 60.0
    assert c2.arena.bounds.hi.x == 4.0
    assert len(c2.arena.obstacles) == 1
    baffle = c2.arena.obstacles[0]
    assert (baffle.lo.x, baffle.lo.y, baffle.hi.x, baffle.hi.y) == (2.0, 2.5, 2.5, 4.0)
    assert c2.init_region == AxisRect(Vec2(1.0, 3.5), Vec2(2.0, 4.0))
    assert c2.classifier.kind == "min-x-threshold"
    assert c2.classifier.right_threshold == 2.5

    c3 = builtin_config("config3")
    assert c3.horizon == 200.0
    assert (c3.food.center.x, c3.food.center.y) == (6.0, 0.1)
    assert len(c3.arena.obstacles) == 2
    block = c3.arena.obstacles[1]
    assert (block.lo.x, block.lo.y, block.hi.x, block.hi.y) == (4.5, 0.0, 5.0, 1.5)
    assert c3.classifier.kind == "band-three-state"
    assert (c3.classifier.left_threshold, c3.classifier.right_threshold) == (2.0, 5.0)

    for name in ("config1-left", "config1-right", "config2", "config3"):
        cfg = builtin_config(name)
        assert cfg.n_fish == 10
        p = cfg.params
        assert (p.attraction, p.alignment, p.avoidance) == (1.0, 1.0, 1.0)
        assert (p.p, p.q, p.P, p.Q) == (3.0, 5.0, 3.0, 5.0)
        assert (p.r, p.R) == (0.1, 0.2)
        assert (p.noise, p.vmax, p.dt) == (0.001, 0.8, 0.01)
        f = cfg.food
        assert (f.radius, f.density, f.diffusion, f.decay) == (0.04, 50.0, 0.1, 0.2)


def test_builtin_rejects_unknown_name():
    with pytest.raises(ValueError):
        builtin_config("config4")


# ----------------------------------------------------------------- validation

def test_trial_config_validation():
    base = builtin_config("config2")
    with pytest.raises(ValueError):
        dataclasses.replace(base, n_fish=1)
    with pytest.raises(ValueError):
        dataclasses.replace(base, horizon=0.015)  # not a whole step count
    with pytest.raises(ValueError):
        dataclasses.replace(base, horizon=-3.0)
    with pytest.raises(ValueError):
        dataclasses.replace(base, seed=-1)
    with pytest.raises(ValueError):
        dataclasses.replace(base, init_region=AxisRect(Vec2(3, 3), Vec2(5, 4)))
    with pytest.raises(ValueError):  # sits on the baffle
        dataclasses.replace(base, init_region=AxisRect(Vec2(1.8, 3.0), Vec2(2.2, 3.8)))


def test_initial_state_draws_in_region():
    cfg = builtin_config("config1-left")
    st = initial_state(cfg, np.random.default_rng(5))
    assert st.n_fish == 10
    assert np.all(st.velocities == 0.0)
    assert np.all(st.positions[:, 0] >= 0.0) and np.all(st.positions[:, 0] <= 2.0)
    assert np.all(st.positions[:, 1] >= 3.5) and np.all(st.positions[:, 1] <= 4.0)
    again = initial_state(cfg, np.random.default_rng(5))
    np.testing.assert_array_equal(st.positions, again.positions)


# --------------------------------------------------------------------- trials

def test_degenerate_trial_reports_mean_of_initial_draw():
    base = builtin_config("config2")
    cfg = dataclasses.replace(
        base,
        params=ModelParams(attraction=0, alignment=0, avoidance=0,
                           sensitivity=0, noise=0, dt=0.01),
        horizon=0.01,  # a single step with every force and the noise off
        seed=909,
    )
    out = run_trial(cfg, coarse_field(base))
    rng = np.random.default_rng(909)
    expect = rng.uniform([1.0, 3.5], [2.0, 4.0], size=(10, 2)).mean(axis=0)
    assert out.final_center.x == expect[0]
    assert out.final_center.y == expect[1]
    assert out.final_components >= 1


def test_run_trial_is_deterministic():
    base = builtin_config("config2")
    cfg = dataclasses.replace(base, n_fish=4, horizon=1.0, seed=42)
    field = coarse_field(base)
    a = run_trial(cfg, field)
    b = run_trial(cfg, field)
    assert a == b  # wall clock is excluded from comparison
    assert a.final_center.x == b.final_center.x
    c = run_trial(dataclasses.replace(cfg, seed=43), field)
    assert (a.final_center.x, a.final_center.y) != (c.final_center.x, c.final_center.y)


def test_run_trial_records_trajectory_on_request():
    base = builtin_config("config2")
    cfg = dataclasses.replace(base, n_fish=3, horizon=0.1, seed=1)
    out = run_trial(cfg, coarse_field(base), traj_stride=5)
    assert out.trajectory is not None
    # 10 steps sampled every 5th, plus the initial state
    assert [round(s.time, 6) for s in out.trajectory] == [0.0, 0.05, 0.1]
    plain = run_trial(cfg, coarse_field(base))
    assert plain.trajectory is None
    assert plain == out  # endpoint summary identical either way


@settings(max_examples=10, deadline=None)
@given(b=st.integers(1, 6), n=st.integers(2, 8), first=st.integers(0, 2**32),
       stride=st.integers(1, 40))
def test_run_trials_equals_each_trial_alone(config2, field_config2, b, n, first, stride):
    # a batch of b trials gives, trial by trial, the outcome and the sampled
    # trajectory of run_trial on that seed alone
    cfg = dataclasses.replace(config2, n_fish=n, horizon=1.5)
    seeds = [first + 7 * k for k in range(b)]
    columns, wall_clock, samples = run_trials(cfg, seeds, field_config2, traj_stride=stride)
    assert set(columns) == {"outcome", "center", "components"}
    assert columns["center"].shape == (b, 2)
    assert len(columns["outcome"]) == len(columns["components"]) == len(samples) == b
    assert wall_clock > 0.0  # the time of the one batch
    for k, seed in enumerate(seeds):
        want = run_trial(dataclasses.replace(cfg, seed=seed), field_config2,
                         traj_stride=stride)
        assert endpoint(columns, k) == endpoint_alone(want)
        assert len(samples[k]) == len(want.trajectory)
        for g, w in zip(samples[k], want.trajectory):
            assert g.time == w.time
            np.testing.assert_array_equal(g.positions, w.positions)
            np.testing.assert_array_equal(g.velocities, w.velocities)


# --------------------------------------------------------------------- sweeps

def test_singleton_sweep():
    base = builtin_config("config2")
    cfg = dataclasses.replace(base, horizon=0.5)
    res = run_sweep(cfg, [2], trials=1, base_seed=7, field=coarse_field(base))
    r = res.results
    assert all(len(col) == 1 for col in r.values())
    assert all(len(col) == 1 for col in res.trials.values())
    assert r["N"].tolist() == [2] and r["trials"].tolist() == [1]
    assert (r["failure_count"] + r["presuccess_count"] + r["success_count"]).tolist() == [1]
    assert r["success_probability"].tolist() in ([0.0], [1.0])
    assert res.trials["seed"].tolist() == [trial_seed(7, 2, 0)]


def test_sweep_independent_of_parallelism():
    # 4 trials in 1, 2 or 3 shards per N; the 3-way split is uneven (2, 1, 1)
    base = builtin_config("config2")
    cfg = dataclasses.replace(base, horizon=0.5)
    field = coarse_field(base)
    serial = run_sweep(cfg, [2, 3], trials=4, base_seed=11, parallelism=1, field=field)
    for parallelism in (2, 3):
        pooled = run_sweep(cfg, [2, 3], trials=4, base_seed=11,
                           parallelism=parallelism, field=field)
        assert serial.results.keys() == pooled.results.keys()
        for name, col in serial.results.items():
            assert col.dtype == pooled.results[name].dtype
            assert np.array_equal(col, pooled.results[name])
        assert serial.trials.keys() == pooled.trials.keys()
        for name, col in serial.trials.items():
            assert col.dtype == pooled.trials[name].dtype
            assert col.tolist() == pooled.trials[name].tolist()
        assert serial.trials["center"].tobytes() == pooled.trials["center"].tobytes()


def test_sweep_pool_has_at_most_one_worker_per_shard(monkeypatch):
    # 2 sizes x 4 trials make 8 shards; a pool of 64 would fork 56 idle workers.
    import concurrent.futures

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    base = builtin_config("config2")
    cfg = dataclasses.replace(base, horizon=0.05)
    run_sweep(cfg, [2, 3], trials=4, base_seed=11, parallelism=64, field=coarse_field(base))
    assert sizes == [8]


def test_sweep_beyond_shard_cap_matches_single_trials():
    # more trials than one shard may hold: the sweep runs them in two
    # batches, and every row equals run_trial on its own seed
    base = builtin_config("config2")
    cfg = dataclasses.replace(base, horizon=0.05)
    field = coarse_field(base)
    trials = SHARD_TRIALS + 3
    res = run_sweep(cfg, [2], trials=trials, base_seed=23, field=field)
    assert res.trials["N"].tolist() == [2] * trials
    assert res.trials["trial_index"].tolist() == list(range(trials))
    for k, seed in enumerate(res.trials["seed"].tolist()):
        assert seed == trial_seed(23, 2, k)
        alone = run_trial(dataclasses.replace(cfg, n_fish=2, seed=seed), field)
        assert endpoint(res.trials, k) == endpoint_alone(alone)


def test_sweep_count_identity():
    base = builtin_config("config2")
    cfg = dataclasses.replace(base, horizon=0.5)
    res = run_sweep(cfg, [2, 4], trials=5, base_seed=3, field=coarse_field(base))
    r = res.results
    assert r["N"].tolist() == [2, 4]
    assert r["trials"].tolist() == [5, 5]
    assert (r["failure_count"] + r["presuccess_count"] + r["success_count"]).tolist() == [5, 5]
    assert r["success_probability"].tolist() == [s / 5 for s in r["success_count"].tolist()]
    assert ((0.0 <= r["success_probability"]) & (r["success_probability"] <= 1.0)).all()
    # the columns carry the derived per-trial seeds in order
    t = res.trials
    assert t["N"].tolist() == [2] * 5 + [4] * 5
    assert t["trial_index"].tolist() == [0, 1, 2, 3, 4] * 2
    assert t["seed"].tolist() == [trial_seed(3, n, j) for n in (2, 4) for j in range(5)]


def test_sweep_rejects_bad_trial_count():
    base = builtin_config("config2")
    with pytest.raises(ValueError):
        run_sweep(base, [2], trials=0, base_seed=1, field=coarse_field(base))
    with pytest.raises(ValueError, match="school size"):
        run_sweep(base, [], trials=1, base_seed=1, field=coarse_field(base))


@pytest.mark.parametrize("parallelism", [0, -3])
def test_sweep_rejects_bad_parallelism(parallelism):
    base = builtin_config("config2")
    with pytest.raises(ValueError, match="parallelism"):
        run_sweep(base, [2], trials=1, base_seed=1, parallelism=parallelism,
                  field=coarse_field(base))


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), 0.0, -1.0])
def test_sweep_rejects_bad_component_delta(monkeypatch, delta):
    base = builtin_config("config2")
    field = coarse_field(base)

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before component_delta was checked")

    monkeypatch.setattr("schoolsim.experiment.run_trials", no_trials)
    with pytest.raises(ValueError,
                       match="Classifier.component_delta must be positive and finite"):
        run_sweep(dataclasses.replace(base, classifier=dataclasses.replace(
            base.classifier, component_delta=delta)), [2], trials=1, base_seed=1,
            field=field)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_sweep_blowup_names_the_trial_seed(parallelism):
    base = builtin_config("config2")
    cfg = dataclasses.replace(base, horizon=0.05, params=dataclasses.replace(
        base.params, attraction=1e300, r=1e6))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ForceBlowUpError) as err:
            run_sweep(cfg, [2], trials=3, base_seed=5, parallelism=parallelism,
                      field=coarse_field(base))
    assert str(trial_seed(5, 2, 0)) in str(err.value)


# ------------------------------------------------------------------------ csv

def test_results_csv_round_trip(tmp_path):
    base = builtin_config("config2")
    cfg = dataclasses.replace(base, horizon=0.5)
    res = run_sweep(cfg, [2, 3], trials=4, base_seed=19, field=coarse_field(base))
    path = tmp_path / "results.csv"
    write_results_csv(res, path)
    back = read_results_csv(path)
    assert back.results.keys() == res.results.keys()
    for name, col in res.results.items():
        assert col.dtype == back.results[name].dtype
        assert np.array_equal(col, back.results[name])
    assert render_success_curve(back.results) == render_success_curve(res.results)
    assert back.trials == {}
    with pytest.raises(ValueError):
        read_results_csv(__file__)  # wrong header


def test_trials_csv_lists_every_trial(tmp_path):
    base = builtin_config("config2")
    cfg = dataclasses.replace(base, horizon=0.5)
    res = run_sweep(cfg, [2], trials=3, base_seed=19, field=coarse_field(base))
    path = tmp_path / "trials.csv"
    write_trials_csv(res, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "N,trial_index,seed,outcome,final_center_x,final_center_y,components"
    assert len(lines) == 4
    assert lines[1].startswith(f"2,0,{trial_seed(19, 2, 0)},")


def test_trajectory_csv_round_trip(tmp_path):
    base = builtin_config("config2")
    cfg = dataclasses.replace(base, n_fish=3, horizon=0.1, seed=8)
    out = run_trial(cfg, coarse_field(base), traj_stride=2)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(out.trajectory, path)
    back = read_trajectory_csv(path)
    assert len(back) == len(out.trajectory)
    for got, want in zip(back, out.trajectory):
        assert got.time == want.time
        np.testing.assert_array_equal(got.positions, want.positions)
        np.testing.assert_array_equal(got.velocities, want.velocities)


# SHA-256 of the trajectory.csv of config3, N=10, seed 1234, 2000 steps,
# every 10th state, as recorded before the step kernels were table-driven.
# It depends on the BLAS thread count, because CG rounds its dot products
# differently with another count: it holds for OpenBLAS at its default on a
# 2-CPU machine (2 threads) and fails with OPENBLAS_NUM_THREADS=1.  The
# perfbench digests are the 1-thread ones.
GOLDEN_TRAJECTORY_SHA256 = "a4cf5c9d0aec9c7f0192c63a1914274ecd75dbf4958a45241ab92682aa67d913"


def test_golden_trajectory_is_bit_identical(tmp_path, config3, field_config3):
    cfg = dataclasses.replace(config3, n_fish=10, seed=1234, horizon=20.0)
    out = run_trial(cfg, field_config3, traj_stride=10)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(out.trajectory, path)
    assert len(out.trajectory) == 201
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_TRAJECTORY_SHA256, (
        f"trajectory digest differs with OPENBLAS_NUM_THREADS="
        f"{os.environ.get('OPENBLAS_NUM_THREADS')} and {cpus} CPUs; the golden "
        "digest holds for OpenBLAS's default thread count on 2 CPUs")


# ----------------------------------------------------------------- public API

def test_every_exported_name_resolves():
    import schoolsim

    missing = [name for name in schoolsim.__all__ if not hasattr(schoolsim, name)]
    assert not missing
    # the array kernels the model runs are the geometry and scent API
    kernels = {"contains_many", "ray_hits_many", "clamp_many",
               "sample_value_many", "sample_gradient_many"}
    assert kernels <= set(schoolsim.__all__)
