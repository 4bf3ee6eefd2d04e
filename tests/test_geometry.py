"""Containment, ray casting, reflection, and clamping on rectangular arenas."""

import numpy as np
import pytest

from schoolsim.geometry import (Arena, AxisRect, Vec2, clamp_many, contains_many,
                                ray_hits_many)


def rect(x0, y0, x1, y1):
    return AxisRect(Vec2(x0, y0), Vec2(x1, y1))


TANK = Arena(rect(0, 0, 7, 4))
BAFFLE_ARENA = Arena(rect(0, 0, 4, 4), (rect(2, 2.5, 2.5, 4),))
TWO_OBSTACLE_ARENA = Arena(rect(0, 0, 7, 4),
                           (rect(2, 2.5, 2.5, 4), rect(4.5, 0, 5, 1.5)))
UNIT_SQUARE = Arena(rect(0, 0, 1, 1))

ALL_ARENAS = [TANK, BAFFLE_ARENA, TWO_OBSTACLE_ARENA, UNIT_SQUARE]


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
    hit, _, normal, dist = cast(TANK, (1, 1), (0, 0))
    assert not hit
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


def brute_first_hit(arena, origin, direction):
    """Scan every wall and obstacle plane crossing; keep the nearest."""
    candidates = []
    pieces = [(arena.bounds, True)] + [(ob, False) for ob in arena.obstacles]
    for piece, _ in pieces:
        for axis, coord in ((0, piece.lo.x), (0, piece.hi.x),
                            (1, piece.lo.y), (1, piece.hi.y)):
            d = direction[axis]
            if d == 0.0:
                continue
            s = (coord - origin[axis]) / d
            if s <= 1e-12:
                continue
            other = 1 - axis
            val = origin[other] + s * direction[other]
            lo = (piece.lo.x, piece.lo.y)[other]
            hi = (piece.hi.x, piece.hi.y)[other]
            if lo - 1e-12 <= val <= hi + 1e-12:
                candidates.append((s, axis, -np.sign(d)))
    if not candidates:
        return None
    return min(candidates)


def random_fluid_points(arena, n, rng):
    b = arena.bounds
    lo, hi = [b.lo.x, b.lo.y], [b.hi.x, b.hi.y]
    pts = np.empty((0, 2))
    while len(pts) < n:
        cand = rng.uniform(lo, hi, size=(2 * n, 2))
        cand = cand[contains_many(arena, cand)]
        pts = np.concatenate([pts, cand])
    return pts[:n]


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
    rng = np.random.default_rng(31)
    b = arena.bounds
    lo = np.array([b.lo.x, b.lo.y]) - 1.0
    hi = np.array([b.hi.x, b.hi.y]) + 1.0
    pts = rng.uniform(lo, hi, size=(3000, 2))
    clamped, moved = clamp_many(arena, pts, 1e-4)
    assert contains_many(arena, clamped).all()
    inside = contains_many(arena, pts)
    # points that were already valid are untouched
    np.testing.assert_array_equal(clamped[inside], pts[inside])
    assert not moved[inside].any()
    assert moved[~inside].any(axis=1).all()


def test_clamp_is_deterministic_on_ties():
    a = clamp_one(BAFFLE_ARENA, 2.25, 3.0)
    b = clamp_one(BAFFLE_ARENA, 2.25, 3.0)
    assert a == b
    assert inside(BAFFLE_ARENA, *a[0])
