"""Force terms, the speed cap, and the stochastic stepper."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from schoolsim.dynamics import (EPS_DIST, NOISE_BLOCK, ForceBlowUpError, ModelParams,
                                SwarmState, advance, step, total_forces)
from schoolsim.geometry import Arena, contains_many, ray_hits_many
from schoolsim.scent import ScentField

from helpers import rect


TANK = Arena(rect(0, 0, 7, 4))
BAFFLE_ARENA = Arena(rect(0, 0, 4, 4), (rect(2, 2.5, 2.5, 4),))
BIG = Arena(rect(-500, -500, 500, 500))

CALM = ModelParams()  # library defaults
FREE = ModelParams(avoidance=0.0, sensitivity=0.0, noise=0.0)


def pair(x1, x2, v1=(0, 0), v2=(0, 0)):
    return SwarmState(0.0, np.array([x1, x2], float), np.array([v1, v2], float))


TERMS = ("attraction", "alignment", "avoidance", "sensitivity")


def only(term, params=CALM):
    """params with every force coefficient but `term` set to zero."""
    return replace(params, **{t: 0.0 for t in TERMS if t != term})


def forces(state, params, arena=TANK, field=None):
    return total_forces(state.positions, state.velocities, arena, field, params)


def batch(*states):
    """The given one-school states as a (B, N, 2) batch."""
    return SwarmState(states[0].time, np.stack([s.positions for s in states]),
                      np.stack([s.velocities for s in states]))


def school_of(state, b):
    """School b of a (B, N, 2) batch."""
    return SwarmState(state.time, state.positions[b], state.velocities[b])


def advance_one(state, arena, field, params, rng, n_steps):
    """advance() on a batch of one, unpacked back to one school."""
    return school_of(advance(batch(state), arena, field, params, [rng], n_steps), 0)


def advance_chunks(state, arena, field, params, rngs, chunks):
    """advance() called once per chunk length; the start state and each
    chunk's end state, in order."""
    states = [state]
    for n_steps in chunks:
        states.append(advance(states[-1], arena, field, params, rngs, n_steps))
    return states


def strided(n_steps, stride):
    """n_steps cut into chunks of stride steps, the last one possibly shorter."""
    return [min(stride, n_steps - k) for k in range(0, n_steps, stride)]


# ------------------------------------------------------------------ contracts

def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(p=3, q=3)  # needs p < q
    with pytest.raises(ValueError):
        ModelParams(P=5, Q=3)
    with pytest.raises(ValueError):
        ModelParams(p=0.5, q=5)  # exponents must exceed 1
    with pytest.raises(ValueError):
        ModelParams(attraction=-1)
    with pytest.raises(ValueError):
        ModelParams(r=0)
    with pytest.raises(ValueError):
        ModelParams(dt=-0.01)
    with pytest.raises(ValueError):
        ModelParams(vmax=float("nan"))
    # 1 < p < q held for q = inf, and the first step then blew up
    for name, v in (("q", float("inf")), ("Q", float("inf")), ("p", float("nan"))):
        with pytest.raises(ValueError, match=f"ModelParams.{name} must be finite"):
            ModelParams(**{name: v})


def test_state_validation():
    with pytest.raises(ValueError):
        SwarmState(0.0, np.zeros((1, 2)), np.zeros((1, 2)))  # lone fish
    with pytest.raises(ValueError):
        SwarmState(0.0, np.zeros((3, 2)), np.zeros((2, 2)))  # shape mismatch
    with pytest.raises(ValueError):
        SwarmState(0.0, np.zeros((2, 3)), np.zeros((2, 3)))  # not 2D points


def test_step_needs_noise_source():
    with pytest.raises(ValueError):
        step(pair((3, 2), (3.2, 2)), TANK, None, CALM)


# ---------------------------------------------------------------- force terms

def test_interaction_vanishes_at_preferred_spacing():
    fx, fy = forces(pair((0.0, 0.0), (0.1, 0.0)), only("attraction"))[0]
    assert abs(fx) < 1e-12 and abs(fy) < 1e-12


def test_interaction_attracts_beyond_preferred_spacing():
    fx, fy = forces(pair((0.0, 0.0), (0.2, 0.0)), only("attraction"))[0]
    assert fx == pytest.approx(0.01875, rel=1e-12)
    assert fy == 0.0


def test_interaction_repels_in_close():
    fx, _ = forces(pair((0.0, 0.0), (0.05, 0.0)), only("attraction"))[0]
    assert fx < 0  # pushed away from the neighbor


def test_interaction_pair_antisymmetry():
    rng = np.random.default_rng(11)
    pos = rng.uniform(0.5, 3.5, size=(2, 2))
    st = SwarmState(0.0, pos, np.zeros((2, 2)))
    f0, f1 = forces(st, only("attraction"))
    assert f0[0] == pytest.approx(-f1[0], rel=1e-12, abs=1e-15)
    assert f0[1] == pytest.approx(-f1[1], rel=1e-12, abs=1e-15)


def test_alignment_matches_velocities():
    st = pair((0.0, 0.0), (0.1, 0.0), v1=(1, 0), v2=(0, 0))
    fx, fy = forces(st, only("alignment"))[0]
    assert fx == pytest.approx(-2.0, rel=1e-12)
    assert fy == 0.0
    # equal velocities feel nothing
    st = pair((0.0, 0.0), (0.13, 0.07), v1=(0.3, -0.2), v2=(0.3, -0.2))
    fx, fy = forces(st, only("alignment"))[0]
    assert fx == 0.0 and fy == 0.0


def test_obstacle_force_toward_bottom_wall():
    st = pair((1, 0.2), (5, 2), v1=(0, -0.5))
    fx, fy = forces(st, only("avoidance"))[0]
    assert fx == pytest.approx(0.0, abs=1e-15)
    assert fy == pytest.approx(2.0, rel=1e-12)


def test_obstacle_force_zero_for_still_fish():
    st = pair((1, 0.2), (5, 2))  # both motionless
    fx, fy = forces(st, only("avoidance"))[0]
    assert fx == 0.0 and fy == 0.0


def test_obstacle_force_fades_with_distance():
    avoid = only("avoidance")
    near = forces(pair((1, 0.3), (5, 2), v1=(0, -0.5)), avoid)[0]
    far = forces(pair((1, 3.0), (5, 2), v1=(0, -0.5)), avoid)[0]
    assert near[1] > far[1] > 0


def test_obstacle_force_is_built_from_ray_hits_many():
    # The avoidance term, written out from the ray cast's normals and
    # distances, equals total_forces bit for bit: the force law runs the
    # ray_hits_many kernel itself.
    avoid = replace(only("avoidance"), avoidance=1.7, P=2.5, Q=7.25)
    school = SwarmState(0.0, np.array([[1.0, 3.0], [1.9, 2.8], [3.0, 1.0], [0.3, 0.2]]),
                        np.array([[0.0, 0.0], [0.6, 0.1], [0.2, 0.7], [-0.4, -0.3]]))
    # The first school heads into the baffle's x-lo face (x = 2), the second
    # into its y-lo face (y = 2.5) and the tank's corner (4, 4); each has a
    # still fish, whose ray strikes nothing.
    other = SwarmState(0.0, np.array([[1.5, 1.0], [2.25, 1.5], [3.9, 3.9], [1.0, 1.0]]),
                       np.array([[0.8, 0.0], [0.0, 0.5], [0.3, 0.3], [0.0, 0.0]]))
    for st in (school, batch(school, other)):
        rows, vrows = st.positions.reshape(-1, 2), st.velocities.reshape(-1, 2)
        n, d = ray_hits_many(BAFFLE_ARENA, rows, vrows)
        assert np.array_equal(d == np.inf, (vrows == 0.0).all(axis=1))
        ratio = avoid.R / np.maximum(d, EPS_DIST)
        vn = (vrows * n).sum(axis=1)
        want = (-avoid.avoidance * (ratio**avoid.P + ratio**avoid.Q) * 2.0 * vn)[:, None] * n
        got = forces(st, avoid, arena=BAFFLE_ARENA)
        assert np.array_equal(got, want.reshape(st.positions.shape))
        assert (got.reshape(-1, 2)[np.isfinite(d)] != 0.0).any(axis=1).all()


def test_food_force_scales_with_sensitivity(field_config2):
    st = pair((1.0, 1.0), (3.0, 0.5))

    def food(sensitivity):
        params = only("sensitivity", ModelParams(sensitivity=sensitivity))
        return forces(st, params, BAFFLE_ARENA, field_config2)[0]

    f1, f2 = food(1.0), food(2.0)
    assert f2[0] == pytest.approx(2 * f1[0], rel=1e-15, abs=1e-300)
    assert f2[1] == pytest.approx(2 * f1[1], rel=1e-15, abs=1e-300)
    f0 = food(0.0)
    assert f0[0] == 0.0 and f0[1] == 0.0


def test_cap_speed():
    # no forces, no noise: step only caps the incoming velocities
    params = ModelParams(attraction=0, alignment=0, avoidance=0,
                         sensitivity=0, noise=0, vmax=0.8)
    st = SwarmState(0.0, np.array([[-100.0, 0.0], [0.0, 0.0], [100.0, 0.0]]),
                    np.array([[3.0, 4.0], [0.1, 0.2], [0.0, 0.0]]))
    v = step(st, BIG, None, params, dw=np.zeros((3, 2))).velocities
    assert v[0, 0] == pytest.approx(0.48, rel=1e-12)
    assert v[0, 1] == pytest.approx(0.64, rel=1e-12)
    assert tuple(v[1]) == (0.1, 0.2)
    assert tuple(v[2]) == (0.0, 0.0)


def test_total_forces_is_sum_of_terms(field_config2):
    rng = np.random.default_rng(5)
    n = 6
    pos = rng.uniform(0.3, 1.8, size=(n, 2))
    vel = rng.uniform(-0.4, 0.4, size=(n, 2))
    st = SwarmState(0.0, pos, vel)
    params = ModelParams(sensitivity=2.0)
    total = forces(st, params, BAFFLE_ARENA, field_config2)
    parts = sum(forces(st, only(t, params), BAFFLE_ARENA, field_config2)
                for t in TERMS)
    for i in range(n):
        assert total[i, 0] == pytest.approx(parts[i, 0], rel=1e-10, abs=1e-12)
        assert total[i, 1] == pytest.approx(parts[i, 1], rel=1e-10, abs=1e-12)


# A baffle-arena school holding two coincident fish (the EPS_DIST floor), a
# still fish (its ray meets nothing), a fish in the bottom wall's band and
# one heading into the baffle from 0.05 away.
PINNED_POSITIONS = np.array([[1.0, 1.0], [1.0, 1.0], [1.05, 1.02], [3.0, 0.05],
                             [1.95, 3.0], [0.5, 3.5]])
PINNED_VELOCITIES = np.array([[0.3, 0.1], [-0.2, 0.25], [0.0, 0.0], [0.1, -0.4],
                              [0.5, 0.0], [-0.1, 0.2]])
PINNED_FORCE_SHA256 = {
    "school": "adf6c8c0475813896de89acd3eed75357d7b79f03ab5bff9ba4b07f5d7620929",
    "batch": "c80196bb96551c9d8b523f1b783f3ad1ae241e3323f3121c9a915703d94d82cf",
}


def pinned_field():
    """A scent field built from arrays, with no solve, so its bits do not
    depend on the BLAS thread count: in the fluid, it points at (3, 1)."""
    h, n = 0.1, 40
    centres = (np.arange(n) + 0.5) * h
    xy = np.stack(np.meshgrid(centres, centres, indexing="ij"), axis=-1)
    fluid = contains_many(BAFFLE_ARENA, xy.reshape(-1, 2)).reshape(n, n)
    grad = np.where(fluid[..., None], np.array([3.0, 1.0]) - xy, 0.0)
    return ScentField(spacing=h, origin=(0.0, 0.0), nx=n, ny=n, fluid=fluid,
                      values=np.zeros((n, n)), grad=grad, source=np.zeros((n, n)))


def test_force_law_bytes_are_pinned():
    # Every term's arithmetic order fixes these bits, and every trajectory's.
    field = pinned_field()
    school = SwarmState(0.0, PINNED_POSITIONS, PINNED_VELOCITIES)
    rolled = SwarmState(0.0, np.stack([np.roll(PINNED_POSITIONS, k, 0) for k in range(3)]),
                        np.stack([np.roll(PINNED_VELOCITIES, 2 * k, 0) for k in range(3)]))
    got = {name: forces(st, CALM, BAFFLE_ARENA, field)
           for name, st in (("school", school), ("batch", rolled))}
    for name, force in got.items():
        assert hashlib.sha256(force.tobytes()).hexdigest() == PINNED_FORCE_SHA256[name], name


def test_blowup_raises():
    st = pair((3.0, 2.0), (3.2, 2.0))
    with np.errstate(over="ignore"):
        with pytest.raises(ForceBlowUpError):
            step(st, TANK, None, ModelParams(attraction=1e300, r=1e6),
                 rng=np.random.default_rng(0))


# -------------------------------------------------------------------- stepper

def test_equilibrium_pair_glides():
    params = ModelParams(avoidance=0.0, sensitivity=0.0, noise=0.0)
    st = pair((3.0, 2.0), (3.1, 2.0), v1=(0.1, 0.05), v2=(0.1, 0.05))
    out = step(st, TANK, None, params, dw=np.zeros((2, 2)))
    np.testing.assert_array_equal(out.velocities, st.velocities)
    np.testing.assert_array_equal(out.positions,
                                  st.positions + params.dt * st.velocities)
    assert out.time == pytest.approx(params.dt)


def test_position_update_uses_pre_step_velocity():
    params = FREE
    st = pair((3.0, 2.0), (3.3, 2.0), v1=(0.1, 0.0), v2=(-0.1, 0.0))
    out = step(st, TANK, None, params, dw=np.zeros((2, 2)))
    # the force is nonzero, so the velocities moved ...
    assert not np.array_equal(out.velocities, st.velocities)
    # ... but the positions integrated the incoming velocities
    np.testing.assert_array_equal(out.positions,
                                  st.positions + params.dt * st.velocities)


def test_clamp_zeroes_normal_velocity_component():
    params = ModelParams(attraction=0, alignment=0, avoidance=0,
                         sensitivity=0, noise=0)
    st = pair((1.0, 0.005), (5.0, 2.0), v1=(0.2, -0.7))
    out = step(st, TANK, None, params, dw=np.zeros((2, 2)))
    assert out.positions[0, 1] == pytest.approx(1e-4)
    assert out.velocities[0, 0] == 0.2  # tangential motion survives
    assert out.velocities[0, 1] == 0.0  # normal component is killed


def test_brownian_increment_statistics():
    params = ModelParams(attraction=0, alignment=0, avoidance=0,
                         sensitivity=0, noise=0.001, dt=0.01)
    rng = np.random.default_rng(42)
    state = pair((3.0, 2.0), (4.0, 2.0))
    n_steps = 100_000
    increments = np.empty((n_steps, 2, 2))
    for k in range(n_steps):
        new = step(state, TANK, None, params, rng=rng)
        increments[k] = new.positions - state.positions
        state = new
    # velocities never pick anything up from the noise
    assert np.all(state.velocities == 0.0)
    samples = increments.reshape(-1, 2)
    for axis in range(2):
        m = samples[:, axis].mean()
        v = samples[:, axis].var()
        assert abs(m) < 3e-5
        assert abs(v - 1e-8) < 0.05e-8


def test_mean_velocity_conserved_without_external_forces():
    rng = np.random.default_rng(7)
    n = 5
    pos = np.array([[0.12 * i, 0.02 * (-1) ** i] for i in range(n)])
    vel = rng.uniform(-0.05, 0.05, size=(n, 2))
    state = SwarmState(0.0, pos, vel)
    params = ModelParams(avoidance=0, sensitivity=0, noise=0)
    before = state.velocities.mean(axis=0)
    for _ in range(100):
        state = step(state, BIG, None, params, dw=np.zeros((n, 2)))
        assert np.hypot(*state.velocities.T).max() < params.vmax  # cap idle
    after = state.velocities.mean(axis=0)
    assert np.abs(after - before).max() < 1e-9


def test_determinism_bit_for_bit():
    def run(seed):
        rng = np.random.default_rng(seed)
        st = pair((1.0, 1.0), (1.2, 1.1), v1=(0.1, 0), v2=(0, 0.1))
        return advance_one(st, TANK, None, CALM, rng, 200)

    a, b = run(99), run(99)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.velocities, b.velocities)
    c = run(100)
    assert not np.array_equal(a.positions, c.positions)


def test_speed_bound_and_containment_under_stress():
    rng = np.random.default_rng(21)
    n = 8
    pos = np.column_stack([rng.uniform(0.2, 3.8, n), rng.uniform(0.2, 2.3, n)])
    vel = rng.uniform(-0.8, 0.8, size=(n, 2))
    state = SwarmState(0.0, pos, vel)
    params = ModelParams(noise=0.05)  # strong jitter drives wall collisions
    samples = [school_of(s, 0) for s in advance_chunks(
        batch(state), BAFFLE_ARENA, None, params, [rng], [1] * 500)]
    assert len(samples) == 501
    for s in samples[1:]:
        speeds = np.hypot(s.velocities[:, 0], s.velocities[:, 1])
        assert speeds.max() <= params.vmax * (1 + 1e-12)
        assert contains_many(BAFFLE_ARENA, s.positions).all()


def test_advance_equals_manual_steps():
    st = pair((2.0, 2.0), (2.2, 2.0), v1=(0.05, 0.02))
    samples = advance_chunks(batch(st), TANK, None, CALM, [np.random.default_rng(3)],
                             strided(5, 2))
    final = school_of(samples[-1], 0)
    manual = st
    rng = np.random.default_rng(3)
    for _ in range(5):
        manual = step(manual, TANK, None, CALM, rng=rng)
    np.testing.assert_array_equal(final.positions, manual.positions)
    np.testing.assert_array_equal(final.velocities, manual.velocities)
    # chunks of 2 steps end at every 2nd state, and the last one at the end
    assert [round(s.time, 6) for s in samples] == [0.0, 0.02, 0.04, 0.05]


def test_advance_over_partial_noise_block_equals_steps(config2, field_config2):
    # noise comes in blocks of NOISE_BLOCK steps; one call of n_steps spans
    # two full blocks and a partial one, and its end state, the states after
    # chunks of 50 steps and each generator's state afterwards must all be
    # those of repeated step() calls
    n_steps = 2 * NOISE_BLOCK + 37
    arena, params = config2.arena, config2.params
    rng0 = np.random.default_rng(11)
    start = SwarmState(0.0, rng0.uniform([1.0, 3.5], [2.0, 4.0], size=(6, 2)),
                       np.zeros((6, 2)))
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    samples = [school_of(s, 0) for s in advance_chunks(
        batch(start), arena, field_config2, params, [rng_a], strided(n_steps, 50))]
    final = samples[-1]
    manual, want = start, [start]
    for k in range(1, n_steps + 1):
        manual = step(manual, arena, field_config2, params, rng=rng_b)
        if k % 50 == 0 or k == n_steps:
            want.append(manual)
    assert len(samples) == len(want) == n_steps // 50 + 2
    for got, exp in zip(samples + [final], want + [manual]):
        assert got.time == exp.time
        np.testing.assert_array_equal(got.positions, exp.positions)
        np.testing.assert_array_equal(got.velocities, exp.velocities)
    after = rng_b.random()
    assert rng_a.random() == after
    rng_one = np.random.default_rng(5)
    one = advance_one(start, arena, field_config2, params, rng_one, n_steps)
    assert one.time == manual.time
    np.testing.assert_array_equal(one.positions, manual.positions)
    np.testing.assert_array_equal(one.velocities, manual.velocities)
    assert rng_one.random() == after


@settings(max_examples=15, deadline=None)
@given(b=st.integers(1, 6), n=st.integers(2, 8), seed=st.integers(0, 2**32),
       n_steps=st.integers(1, NOISE_BLOCK + 30), stride=st.integers(1, 40),
       cuts=st.lists(st.integers(1, NOISE_BLOCK + 29), max_size=3))
@example(b=2, n=3, seed=0, n_steps=NOISE_BLOCK + 30, stride=40, cuts=[37, NOISE_BLOCK - 6])
def test_batched_advance_equals_each_school_alone(config2, field_config2,
                                                   b, n, seed, n_steps, stride, cuts):
    # every school of a batch steps exactly as it would alone: the states
    # after chunks of stride steps, and the next draw of its own generator,
    # bit for bit; and the batch split into chunks at the drawn cuts, which
    # may straddle a NOISE_BLOCK boundary, ends as one call does
    arena, params = config2.arena, config2.params
    draw = np.random.default_rng(seed)
    schools = [SwarmState(0.0, draw.uniform([1.0, 3.5], [2.0, 4.0], size=(n, 2)),
                          draw.uniform(-0.5, 0.5, size=(n, 2))) for _ in range(b)]
    seeds = draw.integers(0, 2**63, size=b).tolist()
    rngs = [np.random.default_rng(s) for s in seeds]
    samples = advance_chunks(batch(*schools), arena, field_config2, params, rngs,
                             strided(n_steps, stride))
    assert samples[-1].positions.shape == (b, n, 2)
    for k, (school, s) in enumerate(zip(schools, seeds)):
        alone = np.random.default_rng(s)
        want = advance_chunks(batch(school), arena, field_config2, params, [alone],
                              strided(n_steps, stride))
        assert len(samples) == len(want)
        for g, w in zip(samples, want):
            assert g.time == w.time
            np.testing.assert_array_equal(g.positions[k], w.positions[0])
            np.testing.assert_array_equal(g.velocities[k], w.velocities[0])
        assert rngs[k].random() == alone.random()

    bounds = [0, *sorted({c for c in cuts if c < n_steps}), n_steps]
    one_rngs, split_rngs = ([np.random.default_rng(s) for s in seeds] for _ in range(2))
    one = advance(batch(*schools), arena, field_config2, params, one_rngs, n_steps)
    split = advance_chunks(batch(*schools), arena, field_config2, params, split_rngs,
                           np.diff(bounds).tolist())[-1]
    assert split.time == one.time
    np.testing.assert_array_equal(split.positions, one.positions)
    np.testing.assert_array_equal(split.velocities, one.velocities)
    assert [g.random() for g in split_rngs] == [g.random() for g in one_rngs]
