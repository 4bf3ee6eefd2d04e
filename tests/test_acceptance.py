"""Desk-scale acceptance checks for the whole pipeline.

Each test covers one numbered criterion and prints a single
``criterion N: PASS/FAIL — detail`` line before asserting, so a captured
run reads as a checklist (use ``pytest -s tests/test_acceptance.py`` to
watch it live).  The two long Monte Carlo sweeps are module fixtures
shared by every criterion that consumes them.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from schoolsim.cli import main
from schoolsim.dynamics import ModelParams, SwarmState, step, total_forces
from schoolsim.experiment import run_sweep
from schoolsim.geometry import Arena, ray_hits_many
from schoolsim.scent import FoodSpec, solve_field

from helpers import brute_first_hit, random_fluid_points, rect


def report(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return line


BIG = Arena(rect(-500, -500, 500, 500))


# ------------------------------------------------------------ shared sweeps

@pytest.fixture(scope="module")
def open_tank_sweep(config1_left, field_config1_left):
    """30 trials of the open-tank setup at N=10 (criteria 6 and 9)."""
    t0 = time.perf_counter()
    res = run_sweep(config1_left, [10], 30, 123, field=field_config1_left)
    return res, time.perf_counter() - t0


# ----------------------------------------------------------------- criteria

def test_c01_constant_source_solution(config1_left):
    t0 = time.perf_counter()
    field = solve_field(config1_left.arena, config1_left.food, spacing=0.02,
                        source=lambda x, y: np.full_like(x, 50.0))
    wall = time.perf_counter() - t0
    u = field.values[field.fluid]
    worst = float(np.abs(u / 250.0 - 1.0).max())
    ok = worst <= 1e-6 and wall < 10.0
    line = report(1, ok, f"flat field off 250 by {worst:.2e} rel, solved in {wall:.2f}s")
    assert ok, line


def test_c02_field_conservation_identity(all_fields):
    worst = 0.0
    for name, trial, field in all_fields:
        h2 = field.spacing ** 2
        lhs = trial.food.decay * field.values[field.fluid].sum() * h2
        rhs = field.source[field.fluid].sum() * h2
        worst = max(worst, abs(lhs / rhs - 1.0))
    ok = worst <= 1e-8
    line = report(2, ok, f"decay*sum(U)*h^2 vs sum(f)*h^2 off by {worst:.2e} rel "
                         f"across {len(all_fields)} setups")
    assert ok, line


def specular(v, n):
    """Image of each row of v across the plane with unit normal n: v - 2(v.n)n."""
    d = 2.0 * (v[:, 0] * n[:, 0] + v[:, 1] * n[:, 1])
    return v - d[:, None] * n


def test_c03_reflection_suite():
    arenas = [
        Arena(rect(0, 0, 7, 4)),
        Arena(rect(0, 0, 4, 4), (rect(2, 2.5, 2.5, 4),)),
        Arena(rect(0, 0, 7, 4), (rect(2, 2.5, 2.5, 4), rect(4.5, 0, 5, 1.5))),
    ]
    avoid = ModelParams(attraction=0.0, alignment=0.0, avoidance=1.7, sensitivity=0.0)
    axis_dirs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    rng = np.random.default_rng(4242)
    n = 10_000
    bad = 0
    axis_rays = 0
    for arena in arenas:
        origins = random_fluid_points(arena, n, rng)
        speeds = rng.uniform(0.01, 2.0, size=n)
        ang = rng.uniform(0, 2 * np.pi, size=n)
        vels = speeds[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
        nrm, dist = ray_hits_many(arena, origins, vels)
        bad += int((~np.isfinite(dist)).sum())
        rfs = specular(vels, nrm)
        backs = specular(rfs, nrm)  # mirroring twice is the identity
        for i in range(n):
            s, axis, sign = brute_first_hit(arena, origins[i], vels[i])
            # s parametrizes the unnormalized ray; the library reports
            # euclidean distance, so rescale by the speed before comparing
            if not (abs(dist[i] - s * speeds[i]) <= 1e-9 and nrm[i, axis] == sign
                    and nrm[i, 1 - axis] == 0.0):
                bad += 1
            v, rf, back = vels[i], rfs[i], backs[i]
            if abs(np.hypot(*rf) - np.hypot(*v)) > 1e-12 * np.hypot(*v):
                bad += 1
            if abs(back[0] - v[0]) > 1e-12 or abs(back[1] - v[1]) > 1e-12:
                bad += 1
        # with only avoidance on, the force is the proximity-weighted
        # difference between the reflected and the incoming velocity
        force = total_forces(origins, vels, arena, None, avoid)
        ratio = (avoid.R / dist)[:, None]
        want = avoid.avoidance * (ratio**avoid.P + ratio**avoid.Q) * (rfs - vels)
        bad += int((~np.isclose(force, want, rtol=1e-12, atol=0.0)).any(axis=1).sum())
        # head-on impacts reverse the velocity exactly
        pts = random_fluid_points(arena, 100, rng)
        dirs = np.tile(axis_dirs, (len(pts), 1))
        nrm, dist = ray_hits_many(arena, np.repeat(pts, 4, axis=0), dirs)
        bad += int((~np.isfinite(dist)).sum())
        head_on = np.abs((nrm * dirs).sum(axis=1)) == 1.0
        axis_rays += int(head_on.sum())
        bad += int((specular(dirs, nrm)[head_on] != -dirs[head_on]).any(axis=1).sum())
        # a still ray meets nothing and keeps its (zero) velocity
        p = random_fluid_points(arena, 1, rng)
        still = np.zeros((1, 2))
        nrm, dist = ray_hits_many(arena, p, still)
        if np.isfinite(dist[0]) or specular(still, nrm).any():
            bad += 1
    ok = bad == 0
    line = report(3, ok, f"{n} random rays x {len(arenas)} arenas (hits, "
                         f"reflections, avoidance force) plus {axis_rays} "
                         f"head-on rays, {bad} failures")
    assert ok, line


def test_c04_momentum_conservation():
    params = replace(ModelParams(), avoidance=0.0, sensitivity=0.0, noise=0.0)
    rng = np.random.default_rng(321)
    xs = np.arange(5) * 0.12
    pos = np.array([[x, y] for y in (0.0, 0.12) for x in xs])
    vel = rng.uniform(-0.05, 0.05, size=(10, 2))
    state = SwarmState(0.0, pos, vel)
    p0 = vel.mean(axis=0)
    zeros = np.zeros_like(pos)
    max_speed = 0.0
    for _ in range(1000):
        state = step(state, BIG, None, params, dw=zeros)
        max_speed = max(max_speed,
                        float(np.linalg.norm(state.velocities, axis=1).max()))
    drift = float(np.abs(state.velocities.mean(axis=0) - p0).max())
    # the cap must stay idle, otherwise the pair sums are no longer odd
    ok = drift < 1e-9 and max_speed < params.vmax
    line = report(4, ok, f"mean-velocity drift {drift:.2e} over 1000 steps "
                         f"(peak speed {max_speed:.3f})")
    assert ok, line


def test_c05_integrator_strong_order():
    horizon = 0.8
    dt0 = 0.0025            # finest increment resolution
    n_base = round(horizon / dt0)
    dts = [0.08, 0.04, 0.02, 0.01]
    n_paths = 16
    pos0 = np.array([[0.0, 0.0], [0.3, 0.0]])
    vel0 = np.array([[0.05, 0.02], [-0.03, 0.04]])

    def run(dt, dw_base):
        m = round(dt / dt0)
        steps = round(horizon / dt)
        dws = dw_base.reshape(steps, m, 2, 2).sum(axis=1)
        params = replace(ModelParams(), dt=dt, avoidance=0.0,
                         sensitivity=0.0, noise=0.001)
        state = SwarmState(0.0, pos0.copy(), vel0.copy())
        for k in range(steps):
            state = step(state, BIG, None, params, dw=dws[k])
        return state.positions

    rng = np.random.default_rng(20240)
    errs = []
    for dt in dts:
        sq = 0.0
        for _ in range(n_paths):
            dw_base = rng.normal(0.0, np.sqrt(dt0), size=(n_base, 2, 2))
            diff = run(dt, dw_base) - run(dt / 4.0, dw_base)
            sq += np.mean(diff ** 2)
        errs.append(np.sqrt(sq / n_paths))
    slope = float(np.polyfit(np.log2(dts), np.log2(errs), 1)[0])
    ok = 0.8 <= slope <= 1.2
    line = report(5, ok, f"strong order {slope:.3f} from endpoint errors "
                         + "/".join(f"{e:.1e}" for e in errs))
    assert ok, line


@pytest.mark.slow
def test_c06_open_tank_success_rate(open_tank_sweep):
    res, wall = open_tank_sweep
    pt = {name: col.item() for name, col in res.results.items()}  # the one row, N=10
    ok = pt["success_probability"] >= 0.9 and wall < 300.0
    line = report(6, ok, f"success {pt['success_count']}/{pt['trials']} at N=10 "
                         f"in {wall:.0f}s (budget 300s)")
    assert ok, line


@pytest.mark.slow
def test_c07_baffle_success_vs_school_size(config2, field_config2):
    t0 = time.perf_counter()
    res = run_sweep(config2, [2, 5, 20], 50, 1234, field=field_config2)
    wall = time.perf_counter() - t0
    p2, p5, p20 = res.results["success_probability"].tolist()
    rise_ok = p5 - p2 >= 0.1
    fall_ok = p20 <= p5 + 0.1
    ok = rise_ok and fall_ok and wall < 900.0
    line = report(7, ok, f"P(2)={p2:.2f} P(5)={p5:.2f} P(20)={p20:.2f}; "
                         f"needs P(5)-P(2)>=0.1 (got {p5 - p2:+.2f}) and "
                         f"P(20)<=P(5)+0.1 ({'ok' if fall_ok else 'violated'}); "
                         f"{wall:.0f}s (budget 900s)")
    assert wall < 900.0, line
    assert fall_ok, line
    assert rise_ok, line


@pytest.mark.slow
def test_c08_two_obstacle_outcome_spread(config3, field_config3):
    t0 = time.perf_counter()
    res = run_sweep(config3, [10], 20, 777, field=field_config3)
    wall = time.perf_counter() - t0
    pt = {name: col.item() for name, col in res.results.items()}  # the one row, N=10
    others = pt["failure_count"] + pt["presuccess_count"]
    ok = pt["success_count"] >= 1 and others >= 1
    line = report(8, ok, f"{pt['success_count']} success / {pt['presuccess_count']} "
                         f"presuccess / {pt['failure_count']} failure over "
                         f"{pt['trials']} trials in {wall:.0f}s")
    assert ok, line


@pytest.mark.slow
def test_c09_school_cohesion(open_tank_sweep):
    res, _ = open_tank_sweep
    components = res.trials["components"]
    single = int(np.count_nonzero(components == 1))
    frac = single / len(components)
    ok = frac >= 0.95
    line = report(9, ok, f"{single}/{len(components)} trials end as one "
                         f"component at delta 0.3")
    assert ok, line


def test_c10_parallel_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"builtin": "config2", "spacing": 0.05,
                               "overrides": {"horizon": 1.0}}))
    outs = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out),
                   "--n-min", "2", "--n-max", "3", "--trials", "2",
                   "--seed", "7", "--jobs", str(jobs), "--per-trial"])
        assert rc == 0
        outs[jobs] = out
    same_results = (outs[1] / "results.csv").read_bytes() == (outs[2] / "results.csv").read_bytes()
    same_trials = (outs[1] / "trials.csv").read_bytes() == (outs[2] / "trials.csv").read_bytes()
    ok = same_results and same_trials
    line = report(10, ok, f"results.csv byte-identical across --jobs 1/2: "
                          f"{same_results} (trials.csv: {same_trials})")
    assert ok, line


@pytest.mark.slow
def test_c11_half_step_robustness(config1_left, field_config1_left):
    fine = replace(config1_left, params=replace(config1_left.params, dt=0.005))
    t0 = time.perf_counter()
    res = run_sweep(fine, [10], 30, 123, field=field_config1_left)
    wall = time.perf_counter() - t0
    pt = {name: col.item() for name, col in res.results.items()}  # the one row, N=10
    ok = pt["success_probability"] >= 0.9
    line = report(11, ok, f"success {pt['success_count']}/{pt['trials']} at dt=0.005 "
                          f"in {wall:.0f}s")
    assert ok, line
