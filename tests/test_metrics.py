"""School diagnostics and endpoint outcome rules."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from schoolsim.dynamics import SwarmState
from schoolsim.geometry import Vec2
from schoolsim.metrics import (Classifier, OutcomeState, classify,
                               connected_components, school_center)


def state(points, velocities=None):
    pts = np.asarray(points, float)
    vel = np.zeros_like(pts) if velocities is None else np.asarray(velocities, float)
    return SwarmState(0.0, pts, vel)


CENTER_RULE = Classifier(kind="center-distance", food_center=Vec2(1.5, 0.1),
                         success_radius=1.0)
MINX_RULE = Classifier(kind="min-x-threshold", right_threshold=2.5)
BAND_RULE = Classifier(kind="band-three-state", left_threshold=2.0,
                       right_threshold=5.0)


# ------------------------------------------------------------------ contracts

def test_classifier_validation():
    with pytest.raises(ValueError):
        Classifier(kind="nearest-neighbor")
    with pytest.raises(ValueError):
        Classifier(kind="center-distance", food_center=Vec2(0, 0))  # no radius
    with pytest.raises(ValueError):
        Classifier(kind="center-distance", food_center=Vec2(0, 0),
                   success_radius=0.0)
    with pytest.raises(ValueError):
        Classifier(kind="min-x-threshold")
    with pytest.raises(ValueError):
        Classifier(kind="band-three-state", left_threshold=3.0,
                   right_threshold=2.0)
    # a degenerate band (equal thresholds) is allowed
    Classifier(kind="band-three-state", left_threshold=2.0, right_threshold=2.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kwargs", [
    dict(kind="min-x-threshold", right_threshold=NAN),
    dict(kind="min-x-threshold", right_threshold=-INF),
    dict(kind="center-distance", food_center=Vec2(0, 0), success_radius=INF),
    dict(kind="center-distance", food_center=Vec2(0, 0), success_radius=NAN),
    dict(kind="center-distance", food_center=Vec2(0, 0), success_radius=-1.0),
    dict(kind="band-three-state", left_threshold=-INF, right_threshold=INF),
    dict(kind="band-three-state", left_threshold=NAN, right_threshold=5.0),
    dict(kind="band-three-state", left_threshold=2.0, right_threshold=NAN),
    # a value the kind does not read would still reach the manifest as NaN
    dict(kind="min-x-threshold", right_threshold=2.5, success_radius=NAN),
    *(dict(kind="min-x-threshold", right_threshold=2.5, component_delta=d)
      for d in (NAN, INF, 0.0, -1.0)),
])
def test_classifier_rejects_non_finite_and_non_positive_values(kwargs):
    # a NaN threshold would make every comparison false: every trial a Failure
    with pytest.raises(ValueError, match=r"Classifier\.\w+ must be (positive and )?finite"):
        Classifier(**kwargs)


# --------------------------------------------------------------------- center

def test_school_center_examples():
    c = school_center(state([(0, 0), (2, 2)]))
    assert (c[0], c[1]) == (1.0, 1.0)
    c = school_center(state([(0.7, -1.2), (0.7, -1.2), (0.7, -1.2)]))
    assert c[0] == pytest.approx(0.7, rel=1e-15)
    assert c[1] == pytest.approx(-1.2, rel=1e-15)
    c = school_center(state([(1, 0), (2, 0), (3, 0)]))
    assert (c[0], c[1]) == (2.0, 0.0)


# ----------------------------------------------------------------- components

def test_components_single_cluster():
    assert connected_components(state([(0, 0), (0.05, 0), (0.02, 0.04)]),
                                delta=0.3) == 1


def test_components_two_distant_pairs():
    pts = [(0, 0), (0.1, 0), (3, 0), (3.1, 0)]  # pairs 10 deltas apart
    assert connected_components(state(pts), delta=0.3) == 2


def test_components_contact_is_strict():
    assert connected_components(state([(0, 0), (0.5, 0)]), delta=0.5) == 2
    assert connected_components(state([(0, 0), (0.4999, 0)]), delta=0.5) == 1


def test_components_default_delta():
    assert connected_components(state([(0, 0), (0.29, 0)])) == 1
    assert connected_components(state([(0, 0), (0.31, 0)])) == 2


def brute_components(pts, delta):
    n = len(pts)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            d = np.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
            if d < delta:
                parent[find(i)] = find(j)
    return len({find(i) for i in range(n)})


def test_components_match_union_find_oracle():
    rng = np.random.default_rng(17)
    for n in (2, 5, 17, 50):
        pts = rng.uniform(0, 2, size=(n, 2))
        for delta in (0.05, 0.15, 0.3, 0.8):
            assert connected_components(state(pts), delta) == \
                brute_components(pts, delta)
    # and on stacked batches: one count per school
    for n in (2, 5, 17):
        stacked = rng.uniform(0, 2, size=(6, n, 2))
        for delta in (0.05, 0.3, 0.8):
            got = connected_components(state(stacked), delta)
            assert got.tolist() == [brute_components(p, delta) for p in stacked]


def csgraph_components(pts, delta):
    from scipy.sparse.csgraph import connected_components as graph_components

    diff = pts[:, None, :] - pts[None, :, :]
    return graph_components((diff * diff).sum(axis=-1) < delta * delta, directed=False)[0]


# A power of two, so fish on multiples of it are exactly DELTA apart.
DELTA = 0.25


def layout(kind, n, rng):
    """n fish in a shuffled order, and the count the layout must give."""
    if kind == "scatter":
        pts, want = rng.uniform(0, rng.uniform(0.1, 3.0), size=(n, 2)), None
    elif kind == "chain":  # the longest path: needs every squaring
        angle = rng.uniform(0, 2 * np.pi)
        step = 0.999 * DELTA * np.array([np.cos(angle), np.sin(angle)])
        pts, want = rng.uniform(-1, 1, size=2) + np.arange(n)[:, None] * step, 1
    elif kind == "exact":  # neighbours exactly DELTA apart are not in contact
        pts, want = np.stack((np.arange(n) * DELTA, np.full(n, 3.0)), axis=1), n
    else:  # coincident fish on sites far apart
        site = rng.integers(0, rng.integers(1, n + 1), size=n)
        pts, want = np.stack((site * 10.0, np.zeros(n)), axis=1), np.unique(site).size
    return pts[rng.permutation(n)], want


LAYOUTS = ("scatter", "chain", "exact", "coincident")


@settings(max_examples=150, deadline=None)
@given(kinds=st.lists(st.sampled_from(LAYOUTS), min_size=1, max_size=6),
       n=st.integers(2, 24), seed=st.integers(0, 2**32 - 1))
@example(kinds=list(LAYOUTS), n=2, seed=0)
@example(kinds=["chain", "chain"], n=24, seed=1)
def test_components_match_csgraph(kinds, n, seed):
    rng = np.random.default_rng(seed)
    schools, wants = zip(*(layout(kind, n, rng) for kind in kinds))
    got = connected_components(state(np.stack(schools)), DELTA)
    assert got.shape == (len(kinds),)
    for k, (pts, want) in enumerate(zip(schools, wants)):
        alone = connected_components(state(pts), DELTA)
        assert alone.shape == ()
        assert got[k] == alone == csgraph_components(pts, DELTA)
        assert want is None or alone == want


def test_components_of_a_batch_with_different_counts():
    one = [(0, 0), (0.1, 0), (0.2, 0), (0.3, 0)]
    two = [(3, 0), (0, 0), (3.1, 0), (0.1, 0)]  # interleaved pairs
    four = [(0, 0), (1, 0), (2, 0), (3, 0)]
    got = connected_components(state([four, one, two, four]), 0.3)
    assert got.shape == (4,)
    assert got.tolist() == [4, 1, 2, 4]


def test_components_non_increasing_in_delta():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 3, size=(10, 2))
    st = state(pts)
    counts = [connected_components(st, d) for d in np.linspace(0.01, 4.0, 40)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[0] == 10 and counts[-1] == 1


# ------------------------------------------------------------------- classify

def test_center_distance_rule():
    st = state([(1.5, 0.4), (1.7, 0.6)])  # center (1.6, 0.5), distance 0.412
    assert classify(st, CENTER_RULE) is OutcomeState.SUCCESS
    st = state([(5.0, 0.1), (6.0, 0.1)])
    assert classify(st, CENTER_RULE) is OutcomeState.FAILURE
    # the rule is strict: center exactly on the radius fails
    st = state([(2.5, 0.1), (2.5, 0.1)])
    assert classify(st, CENTER_RULE) is OutcomeState.FAILURE


def test_min_x_rule():
    assert classify(state([(2.5, 1), (3.0, 1)]), MINX_RULE) is OutcomeState.FAILURE
    assert classify(state([(2.6, 1), (3.0, 1)]), MINX_RULE) is OutcomeState.SUCCESS
    assert classify(state([(0.1, 1), (3.0, 1)]), MINX_RULE) is OutcomeState.FAILURE


def test_band_rule():
    assert classify(state([(2.1, 0), (4.9, 3)]), BAND_RULE) is OutcomeState.PRESUCCESS
    assert classify(state([(0.5, 0), (1.9, 3)]), BAND_RULE) is OutcomeState.FAILURE
    assert classify(state([(5.5, 0), (6.9, 3)]), BAND_RULE) is OutcomeState.SUCCESS
    # boundaries resolve to PreSuccess: the outer tests are strict
    assert classify(state([(1.0, 0), (2.0, 0)]), BAND_RULE) is OutcomeState.PRESUCCESS
    assert classify(state([(5.0, 0), (6.0, 0)]), BAND_RULE) is OutcomeState.PRESUCCESS
    # straddling both thresholds is still PreSuccess
    assert classify(state([(1.0, 0), (6.0, 0)]), BAND_RULE) is OutcomeState.PRESUCCESS


def test_band_rule_partitions_all_states():
    def reference(xs):
        if max(xs) < 2.0:
            return OutcomeState.FAILURE
        if min(xs) > 5.0:
            return OutcomeState.SUCCESS
        return OutcomeState.PRESUCCESS

    rng = np.random.default_rng(29)
    for _ in range(300):
        n = int(rng.integers(2, 12))
        pts = np.column_stack([rng.uniform(0, 7, n), rng.uniform(0, 4, n)])
        got = classify(state(pts), BAND_RULE)
        assert got is reference(pts[:, 0])


def test_threshold_rules_ignore_vertical_translation():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        pts = np.column_stack([rng.uniform(0, 7, n), rng.uniform(0, 4, n)])
        shifted = pts + np.array([0.0, rng.uniform(-30, 30)])
        for rule in (MINX_RULE, BAND_RULE):
            assert classify(state(pts), rule) is classify(state(shifted), rule)


# ------------------------------------------------------------------- batches

@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 6), n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_batched_endpoint_equals_each_school_alone(b, n, seed):
    # schools of different spreads and places, so counts and outcomes differ
    rng = np.random.default_rng(seed)
    corner = rng.uniform([0.0, 0.0], [6.0, 3.0], size=(b, 1, 2))
    spread = rng.uniform(0.05, 3.0, size=(b, 1, 1))
    pos = corner + spread * rng.uniform(0, 1, size=(b, n, 2))
    batched = state(pos)
    centers = school_center(batched)
    components = connected_components(batched, 0.3)
    assert centers.shape == (b, 2) and components.shape == (b,)
    outcomes = {rule.kind: classify(batched, rule)
                for rule in (CENTER_RULE, MINX_RULE, BAND_RULE)}
    for k in range(b):
        alone = state(pos[k].copy())
        # bit for bit the mean of the school on its own
        np.testing.assert_array_equal(centers[k], pos[k].copy().mean(axis=0))
        np.testing.assert_array_equal(centers[k], school_center(alone))
        assert components[k] == connected_components(alone, 0.3) == \
            brute_components(pos[k], 0.3)
        for rule in (CENTER_RULE, MINX_RULE, BAND_RULE):
            assert outcomes[rule.kind][k] is classify(alone, rule)


def test_classify_returns_an_enum_for_one_school_and_an_array_for_a_batch():
    pts = [(5.5, 0), (6.9, 3)]
    assert classify(state(pts), BAND_RULE) is OutcomeState.SUCCESS
    got = classify(state([[(0.5, 0), (1.9, 3)], pts, [(2.1, 0), (4.9, 3)]]), BAND_RULE)
    assert got.dtype == object and got.tolist() == [
        OutcomeState.FAILURE, OutcomeState.SUCCESS, OutcomeState.PRESUCCESS]
