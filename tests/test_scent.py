"""Scent-field solver: discretization, conservation, sampling, CSV export."""

import dataclasses
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from schoolsim.dynamics import ForceBlowUpError, SwarmState, step
from schoolsim.geometry import Arena, Vec2, contains_many
from schoolsim.experiment import builtin_config
from schoolsim import scent
from schoolsim.scent import (TARGET_RTOL, FieldSolveError, FoodSpec, GridError, _operator,
                             read_field_csv, sample_gradient_many, solve_field,
                             write_field_csv)

from helpers import rect


SMALL_TANK = Arena(rect(0, 0, 1, 1))
SMALL_FOOD = FoodSpec(center=Vec2(0.2, 0.2), radius=0.15)


def values_as_grad(field):
    """A copy of field whose gradient holds its values in both components, so
    that sample_gradient_many interpolates the values."""
    return dataclasses.replace(field, grad=np.repeat(field.values[..., None], 2, axis=-1))


def value_at(field, x, y):
    return gradient_at(values_as_grad(field), x, y)[0]


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


def reference_operator(fluid, a, w):
    """The masked 5-point matrix assembled link by link as COO triplets and
    converted to CSR by scipy."""
    nx, ny = fluid.shape
    n = int(fluid.sum())
    idx = -np.ones((nx, ny), dtype=np.int64)
    idx[fluid] = np.arange(n)
    rows, cols, data = [], [], []
    degree = np.zeros((nx, ny))
    links = [
        ((slice(0, nx - 1), slice(None)), (slice(1, nx), slice(None))),
        ((slice(None), slice(0, ny - 1)), (slice(None), slice(1, ny))),
    ]
    for cell_sl, nb_sl in links:
        both = fluid[cell_sl] & fluid[nb_sl]
        i_cell = idx[cell_sl][both]
        i_nb = idx[nb_sl][both]
        rows.extend((i_cell, i_nb))
        cols.extend((i_nb, i_cell))
        data.extend((np.full(i_cell.size, -w), np.full(i_nb.size, -w)))
        degree[cell_sl][both] += 1.0
        degree[nb_sl][both] += 1.0
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    data.append(a + w * degree[fluid])
    return sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )


def fluid_mask(arena, h):
    b = arena.bounds
    xs = b.lo.x + (np.arange(round(b.width / h)) + 0.5) * h
    ys = b.lo.y + (np.arange(round(b.height / h)) + 0.5) * h
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack((xg, yg), axis=-1).reshape(-1, 2)
    return contains_many(arena, pts).reshape(xg.shape)


def random_obstacle_arena():
    """A 20x20 grid at spacing 0.05 with one-cell obstacles on a random
    fifth of the cells that keep clear of the food disc at (0.15, 0.15)."""
    rng = np.random.default_rng(3)
    cells = [(i, j) for i in range(20) for j in range(20) if max(i, j) >= 6]
    picked = rng.choice(len(cells), size=80, replace=False)
    h = 0.05
    return Arena(rect(0, 0, 1, 1), tuple(
        rect(i * h, j * h, (i + 1) * h, (j + 1) * h) for i, j in (cells[k] for k in picked)))


@pytest.fixture(scope="module")
def random_obstacles():
    return SimpleNamespace(arena=random_obstacle_arena(),
                           food=FoodSpec(center=Vec2(0.15, 0.15), radius=0.1))


@pytest.fixture(scope="module")
def field_random_obstacles(random_obstacles):
    field = solve_field(random_obstacles.arena, random_obstacles.food, spacing=0.05)
    assert not field.fluid[-1, -1]  # the sampler's -1 index reads a solid cell here
    return field


OPERATOR_ARENAS = {
    "shared-edge": (Arena(rect(0, 0, 1, 1), (rect(0.2, 0.2, 0.5, 0.7),
                                             rect(0.5, 0.3, 0.8, 0.5))), 0.05),
    "flush-corner": (Arena(rect(0, 0, 1, 1), (rect(0, 0, 0.3, 0.4),)), 0.05),
    "one-cell-channel": (Arena(rect(0, 0, 1, 1), (rect(0, 0.4, 0.4, 0.6),
                                                  rect(0.5, 0.4, 1, 0.6))), 0.1),
    "random-obstacles": (random_obstacle_arena(), 0.05),
}


def signed_zero_vector(fluid):
    """A vector over the fluid cells with negatives, +0.0 and -0.0, and the
    index of a cell whose whole stencil is zero with -0.0 at its centre:
    each product in its row is -0.0, and a row summed from +0.0 gives +0.0."""
    n = int(fluid.sum())
    rng = np.random.default_rng(5)
    v = rng.standard_normal(n)
    v[rng.random(n) < 0.2] = 0.0
    v[rng.random(n) < 0.2] = -0.0
    idx = np.full(np.add(fluid.shape, 2), -1)
    idx[1:-1, 1:-1][fluid] = np.arange(n)
    i, j = np.argwhere(fluid)[n // 2] + 1
    links = idx[[i - 1, i, i, i + 1], [j, j - 1, j + 1, j]]
    v[links[links >= 0]] = 0.0  # times -w gives -0.0
    v[idx[i, j]] = -0.0
    return v, idx[i, j]


@pytest.mark.parametrize("case", [f"{name}@{h}" for name in ("config1-left", "config2", "config3")
                                  for h in (0.02, 0.05, 0.1)] + list(OPERATOR_ARENAS))
def test_operator_matches_coo_assembly_byte_for_byte(case, monkeypatch):
    # The order in which a row is summed fixes CG's rounding, so equal
    # values are not enough.  64 rows a block cuts columns and runs.
    if "@" in case:
        name, h = case.split("@")
        cfg = builtin_config(name)
        arena, food, h = cfg.arena, cfg.food, float(h)
    else:
        (arena, h), food = OPERATOR_ARENAS[case], SMALL_FOOD
    fluid = fluid_mask(arena, h)
    a, w = food.decay, food.diffusion / h**2
    v, k = signed_zero_vector(fluid)
    want = reference_operator(fluid, a, w) @ v
    assert want[k] == 0.0 and not np.signbit(want[k])
    for block in (scent.BLOCK_ROWS, 64):
        monkeypatch.setattr(scent, "BLOCK_ROWS", block)
        got = _operator(fluid, a, w)(v)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), block


def test_one_cell_channel_cells_have_two_links():
    arena, h = OPERATOR_ARENAS["one-cell-channel"]
    fluid = fluid_mask(arena, h)
    assert fluid[:, 4:6].sum() == 2 and fluid[4, 4:6].all()
    A = _operator(fluid, 0.2, 10.0)
    k = int(fluid.ravel()[:4 * fluid.shape[1] + 4].sum())  # cell (4, 4)
    row = np.array([A(e)[k] for e in np.eye(fluid.sum())])
    assert list(np.flatnonzero(row)) == [k - 1, k, k + 1]  # S, centre, N
    assert list(row[k - 1:k + 2]) == [-10.0, 0.2 + 10.0 * 2, -10.0]


@pytest.mark.parametrize("name, spacing, bound_mib", [
    pytest.param("config2", 0.02, 2.5, id="config2"),
    pytest.param("config3", 0.02, 4.0, id="config3"),
    pytest.param("config2", 0.01, 8.7, id="config2-fine"),
])
def test_solve_field_peak_memory(name, spacing, bound_mib, request):
    # tracemalloc counts every numpy buffer and, unlike RSS, reads the same
    # on every run.  Five vectors over the fluid cells (the CG's x, r and p,
    # and the matvec's output, which the CG's updates reuse as scratch, and
    # its -w * p), the source and the mask should dominate (2.25, 3.67 and
    # 7.82 MiB), with no coordinate grid or index table of the operator's
    # build alive next to them.
    cfg = request.getfixturevalue(name)
    tracemalloc.start()
    try:
        solve_field(cfg.arena, cfg.food, spacing=spacing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20, f"solve_field peaked at {peak / 2**20:.2f} MiB"


def scipy_cg(field, food):
    """The field and iteration count of scipy's cg on the same system."""
    from scipy.sparse.linalg import cg

    fluid, a = field.fluid, food.decay
    A = reference_operator(fluid, a, food.diffusion / field.spacing**2)
    b = field.source[fluid]
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    x, _info = cg(A, b, x0=b / a, rtol=TARGET_RTOL, atol=0.0,
                  maxiter=50 * max(fluid.shape), callback=count)
    values = np.zeros(fluid.shape)
    values[fluid] = x
    return values, iters


@pytest.mark.parametrize("name", ["config1_left", "config2", "config3", "random-obstacles"])
def test_cg_loop_matches_scipy_cg_bit_for_bit(name, request):
    # Whatever the BLAS thread count, the loop rounds as scipy's cg does.
    if name == "random-obstacles":
        food = FoodSpec(center=Vec2(0.15, 0.15), radius=0.1)
        field = solve_field(random_obstacle_arena(), food, spacing=0.05)
        assert 0 < field.fluid.sum() < field.fluid.size
    else:
        food = request.getfixturevalue(name).food
        field = request.getfixturevalue(f"field_{name}")
    values, iters = scipy_cg(field, food)
    assert field.iterations == iters
    assert field.values.tobytes() == values.tobytes()


def test_a_stalled_solve_raises_with_its_residual_and_iterations(monkeypatch):
    field = solve_field(SMALL_TANK, SMALL_FOOD, spacing=0.05)
    assert field.residual > 0
    monkeypatch.setattr(scent, "CONTRACT_RTOL", field.residual / 2)
    with pytest.raises(FieldSolveError) as err:
        solve_field(SMALL_TANK, SMALL_FOOD, spacing=0.05)
    assert (f"relative residual {field.residual:.3e} after {field.iterations} iterations"
            in str(err.value))


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
    patched = dataclasses.replace(field, values=f)
    xs, ys = patched.cell_centers()
    assert value_at(patched, (xs[4] + xs[5]) / 2, ys[5]) == pytest.approx(2.0, rel=1e-12)


def test_sampling_outside_fluid_gives_nan_and_step_raises(config2, field_config2):
    # inside the baffle and left of the tank: no fluid cell in the stencil
    pts = np.array([[2.25, 3.0], [-1.0, 0.5]])
    with np.errstate(invalid="ignore"):
        assert np.isnan(sample_gradient_many(values_as_grad(field_config2), pts)).all()
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


def reference_bilinear(field, pts):
    """The gradient's stencil formula written out corner by corner: weights
    of solid or off-grid corners are dropped and the rest renormalized."""
    ox, oy = field.origin
    h = field.spacing
    u = (pts[:, 0] - ox) / h - 0.5
    v = (pts[:, 1] - oy) / h - 0.5
    i0 = np.floor(u).astype(np.int64)
    j0 = np.floor(v).astype(np.int64)
    fx = (u - i0)[:, None]
    fy = (v - j0)[:, None]
    ii = np.stack([i0, i0 + 1, i0, i0 + 1], axis=1)
    jj = np.stack([j0, j0, j0 + 1, j0 + 1], axis=1)
    wgt = np.concatenate(
        [(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy], axis=1
    )
    inside = (ii >= 0) & (ii < field.nx) & (jj >= 0) & (jj < field.ny)
    iic = np.clip(ii, 0, field.nx - 1)
    jjc = np.clip(jj, 0, field.ny - 1)
    wgt = np.where(inside & field.fluid[iic, jjc], wgt, 0.0)
    return (wgt[:, :, None] * field.grad[iic, jjc]).sum(axis=1) / wgt.sum(axis=1)[:, None]


def band_points(arena, half, n, rng):
    """Points within `half` of every tank wall and on both sides of every
    obstacle face, plus uniform points over the tank."""
    b = arena.bounds
    rects = [(b.lo.x, b.lo.y, b.hi.x, b.hi.y)]
    rects += [(o.lo.x, o.lo.y, o.hi.x, o.hi.y) for o in arena.obstacles]
    pts = [rng.uniform([b.lo.x, b.lo.y], [b.hi.x, b.hi.y], size=(n, 2))]
    for x0, y0, x1, y1 in rects:
        for x in (x0, x1):
            pts.append(np.column_stack([rng.uniform(x - half, x + half, n),
                                        rng.uniform(y0, y1, n)]))
        for y in (y0, y1):
            pts.append(np.column_stack([rng.uniform(x0, x1, n),
                                        rng.uniform(y - half, y + half, n)]))
    return np.concatenate(pts)


def assert_same_bits(got, want):
    """Equal bytes: unlike assert_array_equal, tells -0.0 from +0.0."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, n", [("config2", 1500), ("config3", 1500),
                                     ("config1_left", 2000), ("random_obstacles", 100)],
                         ids=["config2", "config3", "config1_left", "random_obstacles"])
def test_sampling_matches_reference_bit_for_bit(name, n, request):
    cfg = request.getfixturevalue(name)
    field = request.getfixturevalue(f"field_{name}")
    rng = np.random.default_rng(17)
    pts = band_points(cfg.arena, field.spacing / 2, n, rng)
    fluid = pts[contains_many(cfg.arena, pts)]
    assert len(fluid) > 5000
    # the values, read through the gradient slot, and the gradient itself
    fields = (values_as_grad(field), field)
    for f in fields:
        want = reference_bilinear(f, fluid)
        assert np.isfinite(want).all()
        assert_same_bits(sample_gradient_many(f, fluid), want)
    # the wall bands sample many exact zeros, whose sign the bytes pin
    assert (sample_gradient_many(field, fluid) == 0).sum() > 1000
    # off the grid, far and near, and deep inside config2's and config3's
    # obstacles; config1-left has none, so there the last point is fluid
    b = cfg.arena.bounds
    off = np.array([[b.lo.x - 0.5, 1.0], [b.hi.x + 3 * field.spacing, 1.0],
                    [1.0, b.lo.y - 1e6], [1.0, b.hi.y + 0.1], [-1e9, 1e9],
                    [2.25, 3.0]])
    off = off[~contains_many(cfg.arena, off)]
    with np.errstate(invalid="ignore"):
        for f in fields:
            assert np.isnan(sample_gradient_many(f, off)).all()
            assert_same_bits(sample_gradient_many(f, pts), reference_bilinear(f, pts))


def test_sampler_tables_hold_no_copy_of_the_field(field_config3):
    # The sampler reads values and grad through one index table, 8 bytes per
    # padded cell, with -1 at solid and padding cells.  The origin is the
    # tables' one float array.
    sample_gradient_many(field_config3, np.array([[1.0, 1.0]]))
    padded = (field_config3.nx + 4) * (field_config3.ny + 4)
    arrays = [t for t in field_config3._stencil if isinstance(t, np.ndarray)]
    assert sum(t.nbytes for t in arrays) <= 9 * padded
    assert not [t.dtype for t in arrays if t.size >= padded and t.dtype.kind == "f"]


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
