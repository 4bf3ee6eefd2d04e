"""Scent-field solver: discretization, conservation, sampling, CSV export."""

import warnings

import numpy as np
import pytest

from schoolsim.dynamics import ForceBlowUpError, SwarmState, step
from schoolsim.geometry import Arena, AxisRect, Vec2
from schoolsim.scent import (FoodSpec, GridError, read_field_csv,
                             sample_gradient_many, sample_value_many,
                             solve_field, write_field_csv)


def rect(x0, y0, x1, y1):
    return AxisRect(Vec2(x0, y0), Vec2(x1, y1))


SMALL_TANK = Arena(rect(0, 0, 1, 1))
SMALL_FOOD = FoodSpec(center=Vec2(0.2, 0.2), radius=0.15)


def value_at(field, x, y):
    return sample_value_many(field, np.array([[x, y]], float))[0]


def gradient_at(field, x, y):
    return sample_gradient_many(field, np.array([[x, y]], float))[0]


# ------------------------------------------------------------------ contracts

def test_foodspec_validates_positive_fields():
    with pytest.raises(ValueError):
        FoodSpec(center=Vec2(0, 0), radius=-0.1)
    with pytest.raises(ValueError):
        FoodSpec(center=Vec2(0, 0), density=0)
    with pytest.raises(ValueError):
        FoodSpec(center=Vec2(0, 0), diffusion=-1)


def test_food_disc_must_fit_in_fluid():
    # pokes out of the tank
    with pytest.raises(ValueError):
        solve_field(SMALL_TANK, FoodSpec(center=Vec2(0.02, 0.5), radius=0.05),
                    spacing=0.05)
    # overlaps an obstacle
    blocked = Arena(rect(0, 0, 1, 1), (rect(0.4, 0.4, 0.6, 0.6),))
    with pytest.raises(ValueError):
        solve_field(blocked, FoodSpec(center=Vec2(0.35, 0.5), radius=0.1),
                    spacing=0.05)


def test_grid_must_conform_to_arena():
    with pytest.raises(GridError):
        solve_field(SMALL_TANK, SMALL_FOOD, spacing=0.03)  # 1/0.03 not integral
    off_grid = Arena(rect(0, 0, 1, 1), (rect(0.41, 0.5, 0.6, 0.7),))
    with pytest.raises(GridError):
        solve_field(off_grid, FoodSpec(center=Vec2(0.2, 0.2), radius=0.1),
                    spacing=0.05)


def test_coarse_spacing_warns_about_unresolved_source():
    with pytest.warns(UserWarning):
        solve_field(SMALL_TANK, FoodSpec(center=Vec2(0.5, 0.5), radius=0.04),
                    spacing=0.05)


# --------------------------------------------------------------------- solver

def test_constant_source_gives_constant_field():
    field = solve_field(SMALL_TANK, SMALL_FOOD, spacing=0.05,
                        source=lambda x, y: np.full_like(x, 50.0))
    np.testing.assert_allclose(field.values, 250.0, rtol=1e-6)
    # and the sampled value anywhere reproduces it
    assert value_at(field, 0.313, 0.77) == pytest.approx(250.0, rel=1e-9)
    # gradient of a constant is zero
    gx, gy = gradient_at(field, 0.313, 0.77)
    assert abs(gx) < 1e-6 and abs(gy) < 1e-6


def test_conservation_identity_small():
    field = solve_field(SMALL_TANK, SMALL_FOOD, spacing=0.05)
    h2 = field.spacing ** 2
    lhs = SMALL_FOOD.decay * field.values[field.fluid].sum() * h2
    rhs = field.source[field.fluid].sum() * h2
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_nonnegativity():
    field = solve_field(SMALL_TANK, SMALL_FOOD, spacing=0.05)
    assert field.values[field.fluid].min() >= -1e-10


def test_solution_matches_dense_direct_solve():
    # independent assembly: loop-built dense system, numpy direct solve
    arena = Arena(rect(0, 0, 1, 1), (rect(0.4, 0.4, 0.6, 0.6),))
    food = FoodSpec(center=Vec2(0.2, 0.2), radius=0.15)
    h = 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field = solve_field(arena, food, spacing=h)

    nx = ny = 10
    c, a = food.diffusion, food.decay
    fluid = field.fluid
    idx = -np.ones((nx, ny), dtype=int)
    order = [(i, j) for i in range(nx) for j in range(ny) if fluid[i, j]]
    for k, (i, j) in enumerate(order):
        idx[i, j] = k
    n = len(order)
    A = np.zeros((n, n))
    b = np.zeros(n)
    for k, (i, j) in enumerate(order):
        A[k, k] = a
        xc, yc = (i + 0.5) * h, (j + 0.5) * h
        if (xc - 0.2) ** 2 + (yc - 0.2) ** 2 <= food.radius ** 2:
            b[k] = food.density
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < nx and 0 <= nj < ny and fluid[ni, nj]:
                A[k, k] += c / h ** 2
                A[k, idx[ni, nj]] -= c / h ** 2
    u = np.linalg.solve(A, b)
    got = field.values[fluid]
    np.testing.assert_allclose(got, u, rtol=1e-9, atol=1e-12)


def test_grid_convergence_on_production_arena(config1_left):
    # halving the spacing shrinks the successive difference by >= 3x
    sols = {}
    for h in (0.04, 0.02, 0.01):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sols[h] = solve_field(config1_left.arena, config1_left.food, spacing=h)

    def diff_on_coarse(coarse, fine):
        k = fine.nx // coarse.nx
        f = fine.values.reshape(coarse.nx, k, coarse.ny, k).mean(axis=(1, 3))
        return np.abs(f - coarse.values).max()

    d1 = diff_on_coarse(sols[0.04], sols[0.02])
    d2 = diff_on_coarse(sols[0.02], sols[0.01])
    assert d1 / d2 >= 3.0


def test_mirror_symmetry_with_centered_source():
    field = solve_field(Arena(rect(0, 0, 2, 2)),
                        FoodSpec(center=Vec2(1.0, 0.5)), spacing=0.02)
    np.testing.assert_allclose(field.values, field.values[::-1, :], atol=1e-9)


def test_field_orderings_around_baffle(field_config2):
    # the peak cell sits inside the food disc
    vals = np.where(field_config2.fluid, field_config2.values, -np.inf)
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    assert field_config2.source[i, j] > 0
    # scent on the far side of the baffle is weaker than in the open half
    assert value_at(field_config2, 0.5, 3.8) < value_at(field_config2, 3.0, 0.5)


def test_gradient_above_config1_source(field_config1_left):
    gx, gy = gradient_at(field_config1_left, 1.5, 2.0)
    assert gy < 0  # scent increases downward, toward the food
    assert abs(gx) < 0.1 * abs(gy)


def test_wall_adjacent_cells_have_zero_normal_gradient(field_config1_left):
    grad = field_config1_left.grad
    fluid = field_config1_left.fluid
    assert np.all(grad[0, :, 0][fluid[0, :]] == 0.0)    # left wall, x comp
    assert np.all(grad[-1, :, 0][fluid[-1, :]] == 0.0)  # right wall
    assert np.all(grad[:, 0, 1][fluid[:, 0]] == 0.0)    # bottom wall, y comp
    assert np.all(grad[:, -1, 1][fluid[:, -1]] == 0.0)  # top wall


def test_obstacle_adjacent_cells_have_zero_normal_gradient(field_config2):
    f = field_config2
    h = f.spacing
    # column of fluid cells immediately left of the baffle face x = 2
    i = int(round(2.0 / h)) - 1
    js = [j for j in range(f.ny) if f.fluid[i, j] and not f.fluid[i + 1, j]]
    assert js, "expected cells hugging the baffle"
    assert all(f.grad[i, j, 0] == 0.0 for j in js)


# ------------------------------------------------------------------- sampling

def test_sampling_is_nodal_at_cell_centers(field_config1_left):
    f = field_config1_left
    xs, ys = f.cell_centers()
    for i, j in ((10, 10), (100, 50), (349, 199), (0, 0)):
        got = value_at(f, xs[i], ys[j])
        assert got == pytest.approx(f.values[i, j], rel=1e-12)


def test_sampling_midpoint_is_linear():
    field = solve_field(SMALL_TANK, SMALL_FOOD, spacing=0.05)
    # overwrite two adjacent interior cells and read their midpoint
    f = field.values.copy()
    f[4, 5], f[5, 5] = 1.0, 3.0
    patched = type(field)(**{**field.__dict__, "values": f})
    xs, ys = patched.cell_centers()
    assert value_at(patched, (xs[4] + xs[5]) / 2, ys[5]) == pytest.approx(2.0, rel=1e-12)


def test_sampling_outside_fluid_gives_nan_and_step_raises(config2, field_config2):
    # inside the baffle and left of the tank: no fluid cell in the stencil
    pts = np.array([[2.25, 3.0], [-1.0, 0.5]])
    with np.errstate(invalid="ignore"):
        assert np.isnan(sample_value_many(field_config2, pts)).all()
        assert np.isnan(sample_gradient_many(field_config2, pts)).all()
        # the NaN pull reaches the force check, so no NaN state comes back
        st = SwarmState(0.0, np.array([[2.25, 3.0], [1.0, 1.0]]), np.zeros((2, 2)))
        with pytest.raises(ForceBlowUpError):
            step(st, config2.arena, field_config2, config2.params,
                 rng=np.random.default_rng(0))


def test_sampling_next_to_obstacle_uses_fluid_cells_only(field_config2):
    # a point whose 2x2 stencil straddles the baffle still interpolates,
    # renormalizing over the fluid cells
    v = value_at(field_config2, 1.995, 3.005)
    assert np.isfinite(v) and v >= 0
    # with the solid column excluded it reduces to interpolation along y
    # in the hugging fluid column
    f = field_config2
    i = int(round(1.99 / f.spacing - 0.5))
    j = int(round(2.99 / f.spacing - 0.5))
    lo, hi = sorted((f.values[i, j], f.values[i, j + 1]))
    assert lo - 1e-12 <= v <= hi + 1e-12


# ------------------------------------------------------------------------ csv

def test_field_csv_round_trip(tmp_path, field_config2):
    path = tmp_path / "field.csv"
    write_field_csv(field_config2, path)
    back = read_field_csv(path)
    assert back.nx == field_config2.nx and back.ny == field_config2.ny
    assert back.spacing == pytest.approx(field_config2.spacing, rel=1e-12)
    np.testing.assert_array_equal(back.fluid, field_config2.fluid)
    np.testing.assert_array_equal(back.values, field_config2.values)
    np.testing.assert_array_equal(back.grad, field_config2.grad)
