"""Containment, ray casting, reflection, and clamping on rectangular arenas."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from schoolsim.geometry import (RAY_TOL, Arena, Vec2, clamp_many, contains_many,
                                ray_hits_many)
from schoolsim.scent import FoodSpec, sample_gradient_many, solve_field

from helpers import brute_first_hit, random_fluid_points, rect


TANK = Arena(rect(0, 0, 7, 4))
BAFFLE_ARENA = Arena(rect(0, 0, 4, 4), (rect(2, 2.5, 2.5, 4),))
TWO_OBSTACLE_ARENA = Arena(rect(0, 0, 7, 4),
                           (rect(2, 2.5, 2.5, 4), rect(4.5, 0, 5, 1.5)))
UNIT_SQUARE = Arena(rect(0, 0, 1, 1))
TOUCHING_ARENA = Arena(rect(0, 0, 7, 4), (rect(1, 1, 2, 3), rect(2, 1, 3, 3)))

ALL_ARENAS = [TANK, BAFFLE_ARENA, TWO_OBSTACLE_ARENA, UNIT_SQUARE, TOUCHING_ARENA]


def inside(arena, x, y):
    return bool(contains_many(arena, np.array([[x, y]], float))[0])


def cast(arena, origin, direction):
    """One ray through ray_hits_many: (has_hit, point, normal, distance)."""
    has_hit, pts, nrm, dist = ray_hits_many(arena, np.array([origin], float),
                                            np.array([direction], float))
    return has_hit[0], pts[0], nrm[0], dist[0]


def specular(v, n):
    """Image of v across the plane with unit normal n: v - 2(v.n)n."""
    d = 2.0 * (v[0] * n[0] + v[1] * n[1])
    return np.array([v[0] - d * n[0], v[1] - d * n[1]])


def clamp_one(arena, x, y, eps=1e-4):
    out, moved = clamp_many(arena, np.array([[x, y]], float), eps)
    return tuple(out[0]), tuple(moved[0])


# ---------------------------------------------------------------- containment

def test_contains_interior_point():
    assert inside(BAFFLE_ARENA, 1, 1)


def test_contains_rejects_point_inside_obstacle():
    assert not inside(BAFFLE_ARENA, 2.25, 3.0)


def test_contains_rejects_point_outside_bounds():
    assert not inside(TANK, 8, 1)


def test_boundary_points_count_as_inside():
    # outer wall and obstacle faces are part of the fluid closure
    assert inside(TANK, 0, 0)
    assert inside(TANK, 7, 4)
    assert inside(BAFFLE_ARENA, 2, 3)  # on the baffle's left face


def in_fluid(arena, x, y):
    """Point-by-point oracle: closed bounds minus open obstacle interiors."""
    b = arena.bounds
    if not (b.lo.x <= x <= b.hi.x and b.lo.y <= y <= b.hi.y):
        return False
    return not any(ob.lo.x < x < ob.hi.x and ob.lo.y < y < ob.hi.y
                   for ob in arena.obstacles)


def test_contains_many_matches_scalar():
    rng = np.random.default_rng(5)
    pts = rng.uniform([-0.5, -0.5], [4.5, 4.5], size=(300, 2))
    got = contains_many(BAFFLE_ARENA, pts)
    want = np.array([in_fluid(BAFFLE_ARENA, x, y) for x, y in pts])
    assert np.array_equal(got, want)


# ---------------------------------------------------------------- validation

def test_axisrect_requires_positive_area():
    with pytest.raises(ValueError):
        rect(3, 2, 2, 1)
    with pytest.raises(ValueError):
        rect(0, 0, 1, 0)


def test_vec2_rejects_non_finite():
    with pytest.raises(ValueError):
        Vec2(float("nan"), 0)
    with pytest.raises(ValueError):
        Vec2(0, float("inf"))


def test_arena_rejects_obstacle_outside_bounds():
    with pytest.raises(ValueError):
        Arena(rect(0, 0, 4, 4), (rect(3, 3, 5, 3.5),))


def test_arena_rejects_overlapping_obstacles():
    with pytest.raises(ValueError):
        Arena(rect(0, 0, 7, 4), (rect(1, 1, 3, 3), rect(2, 2, 4, 3.5)))


def test_arena_allows_touching_obstacles():
    Arena(rect(0, 0, 7, 4), (rect(1, 1, 2, 3), rect(2, 1, 3, 3)))


# The fluid-side faces as (axis, coord, span lo, span hi, normal sign): the
# walls left, right, bottom and top minus the spans of flush obstacles, then
# each obstacle's x-lo, x-hi, y-lo and y-hi faces off the walls.  Ray-cast
# ties go to the lowest face, so every trajectory digest depends on this
# order.
FACE_ROWS = {
    "baffle": (BAFFLE_ARENA, [
        (0, 0.0, 0.0, 4.0, 1.0), (0, 4.0, 0.0, 4.0, -1.0),
        (1, 0.0, 0.0, 4.0, 1.0), (1, 4.0, 0.0, 2.0, -1.0), (1, 4.0, 2.5, 4.0, -1.0),
        (0, 2.0, 2.5, 4.0, -1.0), (0, 2.5, 2.5, 4.0, 1.0), (1, 2.5, 2.0, 2.5, -1.0),
    ]),
    "two-obstacle": (TWO_OBSTACLE_ARENA, [
        (0, 0.0, 0.0, 4.0, 1.0), (0, 7.0, 0.0, 4.0, -1.0),
        (1, 0.0, 0.0, 4.5, 1.0), (1, 0.0, 5.0, 7.0, 1.0),
        (1, 4.0, 0.0, 2.0, -1.0), (1, 4.0, 2.5, 7.0, -1.0),
        (0, 2.0, 2.5, 4.0, -1.0), (0, 2.5, 2.5, 4.0, 1.0), (1, 2.5, 2.0, 2.5, -1.0),
        (0, 4.5, 0.0, 1.5, -1.0), (0, 5.0, 0.0, 1.5, 1.0), (1, 1.5, 4.5, 5.0, 1.0),
    ]),
    "touching": (TOUCHING_ARENA, [
        (0, 0.0, 0.0, 4.0, 1.0), (0, 7.0, 0.0, 4.0, -1.0),
        (1, 0.0, 0.0, 7.0, 1.0), (1, 4.0, 0.0, 7.0, -1.0),
        (0, 1.0, 1.0, 3.0, -1.0), (0, 2.0, 1.0, 3.0, 1.0),
        (1, 1.0, 1.0, 2.0, -1.0), (1, 3.0, 1.0, 2.0, 1.0),
        (0, 2.0, 1.0, 3.0, -1.0), (0, 3.0, 1.0, 3.0, 1.0),
        (1, 1.0, 2.0, 3.0, -1.0), (1, 3.0, 2.0, 3.0, 1.0),
    ]),
}


@pytest.mark.parametrize("name", FACE_ROWS)
def test_face_table_order(name):
    arena, rows = FACE_ROWS[name]
    t = arena._table
    axes = t.cols[0]
    n = len(rows)
    np.testing.assert_array_equal(axes, [r[0] for r in rows])
    np.testing.assert_array_equal(t.cols[1], 1 - axes)
    np.testing.assert_array_equal(t.coords, [r[1] for r in rows])
    np.testing.assert_array_equal(t.lo, np.array([r[2] for r in rows]) - RAY_TOL)
    np.testing.assert_array_equal(t.hi, np.array([r[3] for r in rows]) + RAY_TOL)
    np.testing.assert_array_equal(t.normals[np.arange(n), axes], [r[4] for r in rows])
    np.testing.assert_array_equal(t.normals[np.arange(n), 1 - axes], 0.0)
    np.testing.assert_array_equal(t.normals[n], 0.0)


# ---------------------------------------------------------------- ray casting

def test_ray_straight_down_to_bottom_wall():
    hit, point, normal, dist = cast(TANK, (1, 1), (0, -1))
    assert hit
    assert tuple(point) == (1.0, 0.0)
    assert tuple(normal) == (0.0, 1.0)
    assert dist == pytest.approx(1.0, abs=1e-12)


def test_ray_strikes_obstacle_face():
    hit, point, normal, dist = cast(BAFFLE_ARENA, (1, 3), (1, 0))
    assert hit
    assert tuple(point) == (2.0, 3.0)
    assert tuple(normal) == (-1.0, 0.0)
    assert dist == pytest.approx(1.0, abs=1e-12)


def test_zero_direction_gives_no_hit():
    hit, point, normal, dist = cast(TANK, (1, 1), (0, 0))
    assert not hit
    assert tuple(point) == (1.0, 1.0)
    assert tuple(normal) == (0.0, 0.0) and dist == 0.0
    # a tank filled by its obstacle has no face to strike at all
    solid = Arena(rect(0, 0, 1, 1), (rect(0, 0, 1, 1),))
    hit, point, normal, dist = cast(solid, (0.5, 0.5), (1, 0.5))
    assert not hit
    assert tuple(point) == (0.5, 0.5)
    assert tuple(normal) == (0.0, 0.0) and dist == 0.0


def test_corner_hit_prefers_face_with_larger_direction_component():
    # exact diagonal: tie broken toward the x face
    hit, point, normal, _ = cast(UNIT_SQUARE, (0.5, 0.5), (1, 1))
    assert hit
    assert tuple(point) == (1.0, 1.0)
    assert tuple(normal) == (-1.0, 0.0)
    # steeper ray into the same corner: the y face supplies the normal
    hit, point, normal, _ = cast(UNIT_SQUARE, (0.6, 0.2), (1, 2))
    assert hit
    assert tuple(point) == (1.0, 1.0)
    assert tuple(normal) == (0.0, -1.0)


def test_ray_distance_is_euclidean_for_unnormalized_dir():
    _, _, _, dist = cast(TANK, (1, 1), (0, -7))
    assert dist == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("arena", ALL_ARENAS)
def test_first_hit_matches_brute_force(arena):
    rng = np.random.default_rng(11)
    n = 2000
    origins = random_fluid_points(arena, n, rng)
    angles = rng.uniform(0, 2 * np.pi, size=n)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    has_hit, points, normals, distances = ray_hits_many(arena, origins, dirs)
    assert has_hit.all()
    for i in range(n):
        s, axis, sign = brute_first_hit(arena, origins[i], dirs[i])
        assert distances[i] == pytest.approx(s, abs=1e-9)
        assert normals[i, axis] == sign
        assert normals[i, 1 - axis] == 0.0
        # the hit point sits exactly on the reported face plane
        expected = origins[i] + s * dirs[i]
        np.testing.assert_allclose(points[i], expected, atol=1e-9)


@pytest.mark.parametrize("arena", ALL_ARENAS)
def test_reflection_properties(arena):
    rng = np.random.default_rng(17)
    n = 2000
    origins = random_fluid_points(arena, n, rng)
    speeds = rng.uniform(0.01, 1.0, size=n)
    angles = rng.uniform(0, 2 * np.pi, size=n)
    vels = speeds[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    has_hit, _, normals, _ = ray_hits_many(arena, origins, vels)
    assert has_hit.all()
    for v, nrm in zip(vels, normals):
        rf = specular(v, nrm)
        # norm preservation
        assert np.hypot(*rf) == pytest.approx(np.hypot(*v), rel=1e-12)
        # tangential component unchanged
        t = np.array([-nrm[1], nrm[0]])
        assert rf @ t == pytest.approx(v @ t, abs=1e-12)
        # reflecting again at the same normal recovers v
        back = specular(rf, nrm)
        assert back[0] == pytest.approx(v[0], abs=1e-12)
        assert back[1] == pytest.approx(v[1], abs=1e-12)
        # unit normal
        assert np.hypot(*nrm) == pytest.approx(1.0, abs=1e-12)


def test_perpendicular_reflection_is_exact_reversal():
    _, point, normal, _ = cast(TANK, (1, 1), (0, -2))
    assert tuple(specular((0.0, -2.0), normal)) == (0.0, 2.0)
    assert tuple(point) == (1.0, 0.0)


def test_diagonal_reflection_off_bottom_wall():
    _, _, normal, _ = cast(TANK, (1, 1), (1, -1))
    assert tuple(specular((1.0, -1.0), normal)) == (1.0, 1.0)


def test_zero_velocity_reflects_to_itself():
    hit, _, normal, _ = cast(TANK, (1, 1), (0, 0))
    assert tuple(specular((0.0, 0.0), normal)) == (0.0, 0.0)
    assert not hit


def test_perpendicular_reversal_on_constructed_rays():
    # aim straight at each wall of each arena from random interior points
    rng = np.random.default_rng(23)
    axis_dirs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    for arena in ALL_ARENAS:
        pts = random_fluid_points(arena, 50, rng)
        origins = np.repeat(pts, len(axis_dirs), axis=0)
        dirs = np.tile(axis_dirs, (len(pts), 1))
        has_hit, _, normals, _ = ray_hits_many(arena, origins, dirs)
        for hit, d, nrm in zip(has_hit, dirs, normals):
            if not hit:
                continue
            if abs(nrm @ d) == 1.0:  # perpendicular impact
                assert tuple(specular(d, nrm)) == (-d[0], -d[1])


# ------------------------------------------------------------------- clamping

def test_clamp_leaves_interior_point_alone():
    assert clamp_one(TANK, 3, 2) == ((3.0, 2.0), (False, False))


def test_clamp_projects_below_floor_back_inside():
    assert clamp_one(TANK, 3, -0.05) == ((3.0, 1e-4), (False, True))


def test_clamp_pushes_out_of_obstacle_through_nearest_face():
    got, moved = clamp_one(BAFFLE_ARENA, 2.1, 3.0)
    assert got == (2 - 1e-4, 3.0)
    assert moved == (True, False)


def test_clamp_never_exits_through_wall_flush_face():
    # point inside the baffle near its top edge; the top face coincides with
    # the tank wall, so the exit must use a real fluid-facing face
    got, _ = clamp_one(BAFFLE_ARENA, 2.25, 3.95)
    assert inside(BAFFLE_ARENA, *got)
    assert got[1] <= 4.0


def test_clamp_eps_band_moves_wall_points_but_not_obstacle_points():
    # both points are already in the fluid, closer than eps to a boundary:
    # the outer-wall clip pushes the first to eps, the obstacle test (open
    # interior) leaves the second where it is
    assert clamp_one(BAFFLE_ARENA, 3.0, 5e-5) == ((3.0, 1e-4), (False, True))
    assert clamp_one(BAFFLE_ARENA, 1.99995, 3.0) == ((1.99995, 3.0), (False, False))


@pytest.mark.parametrize("arena", ALL_ARENAS)
def test_clamp_always_lands_inside(arena):
    eps = 1e-4
    rng = np.random.default_rng(31)
    b = arena.bounds
    lo = np.array([b.lo.x, b.lo.y])
    hi = np.array([b.hi.x, b.hi.y])
    pts = rng.uniform(lo - 1.0, hi + 1.0, size=(3000, 2))
    # fluid points closer than eps to the left and to the bottom wall
    band = rng.uniform(lo + eps, hi - eps, size=(200, 2))
    band[:100, 0] = b.lo.x + rng.uniform(0.0, eps, 100)
    band[100:, 1] = b.lo.y + rng.uniform(0.0, eps, 100)
    band = band[contains_many(arena, band)]
    assert len(band) > 150
    pts = np.concatenate([pts, band])
    clamped, moved = clamp_many(arena, pts, eps)
    assert contains_many(arena, clamped).all()
    inside = contains_many(arena, pts)
    assert moved[~inside].any(axis=1).all()
    # fluid points more than eps from the outer walls are untouched ...
    clear = inside & ((pts >= lo + eps) & (pts <= hi - eps)).all(axis=1)
    np.testing.assert_array_equal(clamped[clear], pts[clear])
    assert not moved[clear].any()
    # ... and those in the band along a wall move to eps from it, flagged
    near = inside & ~clear
    assert near.sum() >= len(band)
    np.testing.assert_array_equal(moved[near], (pts[near] < lo + eps) | (pts[near] > hi - eps))
    np.testing.assert_array_equal(clamped[near], np.clip(pts[near], lo + eps, hi - eps))


@pytest.mark.parametrize("obstacles", [
    (rect(1, 1, 2, 2), rect(2, 1, 3, 2)),
    (rect(2, 1, 3, 2), rect(1, 1, 2, 2)),
])
def test_clamp_never_pushes_into_a_touching_obstacle(obstacles):
    # The nearest face of each point is the shared one at x = 2; crossing it
    # lands in the other obstacle, so the point leaves through another face.
    arena = Arena(rect(0, 0, 4, 4), obstacles)
    pts = np.array([[2.05, 1.5], [1.95, 1.5]])
    out, moved = clamp_many(arena, pts, 1e-4)
    assert contains_many(arena, out).all()
    np.testing.assert_array_equal(out, [[2.05, 1 - 1e-4], [1.95, 1 - 1e-4]])
    np.testing.assert_array_equal(moved, [[False, True], [False, True]])


def test_clamp_is_deterministic_on_ties():
    a = clamp_one(BAFFLE_ARENA, 2.25, 3.0)
    b = clamp_one(BAFFLE_ARENA, 2.25, 3.0)
    assert a == b
    assert inside(BAFFLE_ARENA, *a[0])


# A column obstacle with touching neighbours left and right: (1.5, 2.5)
# clips onto the tank top inside the column, and none of the column's four
# exits lands in the fluid.
WALLED_IN_ARENA = Arena(rect(0, 0, 4, 2), (rect(1, 0, 2, 2), rect(0, 1, 1, 2),
                                           rect(2, 0, 3, 2)))


@st.composite
def grid_arenas(draw):
    """A tank of whole cells with obstacles on whole cells, which may touch
    each other and the walls, leaving at least one cell of fluid."""
    unit = draw(st.sampled_from([0.5, 1.0]))
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    covered = np.zeros((w, h), dtype=bool)
    obstacles = []
    for x, y, dx, dy in draw(st.lists(st.tuples(st.integers(0, w - 1), st.integers(0, h - 1),
                                                st.integers(1, w), st.integers(1, h)),
                                      max_size=6)):
        cells = np.s_[x:x + dx, y:y + dy]
        if not covered[cells].any():
            covered[cells] = True
            obstacles.append(rect(x * unit, y * unit, min(x + dx, w) * unit,
                                  min(y + dy, h) * unit))
    assume(not covered.all())
    return Arena(rect(0, 0, w * unit, h * unit), tuple(obstacles))


@settings(max_examples=60, deadline=None)
@given(arena=grid_arenas(), seed=st.integers(0, 2**32 - 1))
@example(arena=WALLED_IN_ARENA, seed=0)
def test_grid_arenas_keep_every_point_in_the_fluid(arena, seed):
    # The centre of every half-cell, and each centre stepped off every side
    # of the tank, to clip onto the wall beside it.
    b = arena.bounds
    lo, hi = np.array([b.lo.x, b.lo.y]), np.array([b.hi.x, b.hi.y])
    centres = np.stack(np.meshgrid(np.arange(0.25, b.hi.x, 0.5), np.arange(0.25, b.hi.y, 0.5),
                                   indexing="ij"), axis=-1).reshape(-1, 2)
    stepped = []
    for axis in (0, 1):
        for edge in (lo[axis] - 0.5, hi[axis] + 0.5):
            stepped.append(centres.copy())
            stepped[-1][:, axis] = edge
    rng = np.random.default_rng(seed)
    pts = np.concatenate([centres, *stepped, rng.uniform(lo - 1.0, hi + 1.0, size=(300, 2))])

    clamped, _ = clamp_many(arena, pts, 1e-4)
    assert contains_many(arena, clamped).all()

    food = centres[contains_many(arena, centres)][0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field = solve_field(arena, FoodSpec(center=Vec2(*food)), 0.25)
    assert np.isfinite(sample_gradient_many(field, clamped)).all()

    dirs = rng.standard_normal(clamped.shape)
    assert ray_hits_many(arena, clamped, dirs)[0].all()
