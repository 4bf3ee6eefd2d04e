"""Steady food-scent field on a masked cell-centered grid.

The scent concentration U satisfies a screened diffusion balance
``-diffusion * lap(U) + decay * U = f`` over the fluid region, with
zero-flux (no-leak) conditions on the tank walls and obstacle faces.
Discretization is the standard 5-point stencil on cell centers with
ghost-cell closure for the zero-flux faces; the resulting symmetric
positive-definite system is solved by conjugate gradients.

The source f is ``food.density`` inside the food disc and 0 elsewhere,
sampled at cell centers.
"""

import csv
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import cg

from .geometry import Arena, Vec2

DEFAULT_SPACING = 0.02
GRID_TOL = 1e-9
# Residual the solver aims for, and the level it must reach not to error.
TARGET_RTOL = 1e-12
CONTRACT_RTOL = 1e-8

FIELD_CSV_HEADER = ["cell_i", "cell_j", "x_center", "y_center", "fluid_flag", "U", "dUdx", "dUdy"]


class GridError(ValueError):
    """The requested spacing does not conform to the arena geometry."""


class FieldSolveError(RuntimeError):
    """The linear solver failed to reach the required residual."""


@dataclass(frozen=True)
class FoodSpec:
    """Food source: a disc of constant emission density.

    diffusion and decay are the transport coefficients of the scent
    balance; all numeric fields must be positive.
    """

    center: Vec2
    radius: float = 0.04
    density: float = 50.0
    diffusion: float = 0.1
    decay: float = 0.2

    def __post_init__(self):
        for name in ("radius", "density", "diffusion", "decay"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"FoodSpec.{name} must be positive and finite, got {v}")


@dataclass
class ScentField:
    """Solved scent field on a cell-centered grid.

    Arrays are indexed ``[i, j]`` with i along x and j along y.  ``fluid``
    marks cells outside obstacles; values and gradients are zero on solid
    cells.  Treated as immutable once constructed.
    """

    arena: Arena | None
    spacing: float
    origin: tuple
    nx: int
    ny: int
    fluid: np.ndarray
    values: np.ndarray
    grad: np.ndarray
    source: np.ndarray
    residual: float = 0.0
    iterations: int = 0

    def cell_centers(self):
        """(nx,) and (ny,) arrays of cell-center coordinates."""
        ox, oy = self.origin
        xs = ox + (np.arange(self.nx) + 0.5) * self.spacing
        ys = oy + (np.arange(self.ny) + 0.5) * self.spacing
        return xs, ys


def _check_food_in_fluid(arena: Arena, food: FoodSpec):
    b = arena.bounds
    c, rad = food.center, food.radius
    if not (
        c.x - rad >= b.lo.x - GRID_TOL
        and c.x + rad <= b.hi.x + GRID_TOL
        and c.y - rad >= b.lo.y - GRID_TOL
        and c.y + rad <= b.hi.y + GRID_TOL
    ):
        raise ValueError("food disc extends outside the arena bounds")
    for k, ob in enumerate(arena.obstacles):
        dx = max(ob.lo.x - c.x, 0.0, c.x - ob.hi.x)
        dy = max(ob.lo.y - c.y, 0.0, c.y - ob.hi.y)
        if np.hypot(dx, dy) < rad - GRID_TOL:
            raise ValueError(f"food disc overlaps obstacle {k}")


def _grid_shape(arena: Arena, spacing: float):
    b = arena.bounds
    shape = []
    for name, length in (("width", b.width), ("height", b.height)):
        n = round(length / spacing)
        if n < 1 or abs(n * spacing - length) > GRID_TOL:
            raise GridError(
                f"spacing {spacing} does not divide the arena {name} {length} "
                f"(remainder {abs(n * spacing - length):.3e})"
            )
        shape.append(n)
    for k, ob in enumerate(arena.obstacles):
        for coord, lo in ((ob.lo.x, b.lo.x), (ob.hi.x, b.lo.x), (ob.lo.y, b.lo.y), (ob.hi.y, b.lo.y)):
            g = (coord - lo) / spacing
            if abs(coord - lo - round(g) * spacing) > GRID_TOL:
                raise GridError(
                    f"obstacle {k} edge at {coord} does not lie on a grid line "
                    f"for spacing {spacing}"
                )
    return shape[0], shape[1]


def solve_field(arena: Arena, food: FoodSpec, spacing: float = DEFAULT_SPACING,
                source=None) -> ScentField:
    """Solve the scent balance for the given arena/food pairing.

    ``source`` optionally overrides the food-disc emission with a callable
    ``source(x, y)`` evaluated on cell-center coordinate arrays (used for
    solver verification); the food spec still supplies the transport
    coefficients.

    Raises GridError when the spacing does not conform to the geometry and
    FieldSolveError when the linear solve cannot reach its residual.
    """
    if not (np.isfinite(spacing) and spacing > 0):
        raise GridError(f"spacing must be positive and finite, got {spacing}")
    _check_food_in_fluid(arena, food)
    nx, ny = _grid_shape(arena, spacing)
    if spacing > food.radius / 2 + GRID_TOL:
        warnings.warn(
            f"spacing {spacing} exceeds half the food radius {food.radius}; "
            "the source disc may be under-resolved",
            stacklevel=2,
        )

    h = spacing
    b = arena.bounds
    ox, oy = b.lo.x, b.lo.y
    xs = ox + (np.arange(nx) + 0.5) * h
    ys = oy + (np.arange(ny) + 0.5) * h
    xg, yg = np.meshgrid(xs, ys, indexing="ij")

    fluid = np.ones((nx, ny), dtype=bool)
    for ob in arena.obstacles:
        fluid &= ~((xg > ob.lo.x) & (xg < ob.hi.x) & (yg > ob.lo.y) & (yg < ob.hi.y))

    if source is None:
        d2 = (xg - food.center.x) ** 2 + (yg - food.center.y) ** 2
        f = np.where(d2 <= food.radius**2, food.density, 0.0)
    else:
        f = np.broadcast_to(np.asarray(source(xg, yg), dtype=float), (nx, ny)).copy()
    f[~fluid] = 0.0

    values, residual, iterations = _solve_linear(fluid, f, food, h)

    grad = np.zeros((nx, ny, 2))
    inv2h = 1.0 / (2.0 * h)
    # Central differences where both axis neighbors are fluid; the
    # component normal to a boundary-adjacent face stays zero, matching
    # the zero-flux closure.
    ok = np.zeros((nx, ny), dtype=bool)
    ok[1:-1, :] = fluid[1:-1, :] & fluid[2:, :] & fluid[:-2, :]
    gx = np.zeros((nx, ny))
    gx[1:-1, :] = (values[2:, :] - values[:-2, :]) * inv2h
    grad[:, :, 0] = np.where(ok, gx, 0.0)
    ok = np.zeros((nx, ny), dtype=bool)
    ok[:, 1:-1] = fluid[:, 1:-1] & fluid[:, 2:] & fluid[:, :-2]
    gy = np.zeros((nx, ny))
    gy[:, 1:-1] = (values[:, 2:] - values[:, :-2]) * inv2h
    grad[:, :, 1] = np.where(ok, gy, 0.0)

    return ScentField(
        arena=arena, spacing=h, origin=(ox, oy), nx=nx, ny=ny, fluid=fluid,
        values=values, grad=grad, source=f, residual=residual, iterations=iterations,
    )


def _solve_linear(fluid, f, food, h):
    """Assemble and CG-solve the masked 5-point system.  Returns
    (values, relative residual, iterations)."""
    nx, ny = fluid.shape
    n = int(fluid.sum())
    idx = -np.ones((nx, ny), dtype=np.int64)
    idx[fluid] = np.arange(n)

    a, c = food.decay, food.diffusion
    w = c / h**2
    rows, cols, data = [], [], []
    degree = np.zeros((nx, ny))
    # (shifted slice pairs: cell block, neighbor block) for the 4 neighbors
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

    diag = a + w * degree[fluid]
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    data.append(diag)
    A = sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )

    b = f[fluid]
    values = np.zeros((nx, ny))
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return values, 0.0, 0

    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    # The reaction-limit guess b/a is exact for constant sources and a
    # reasonable start otherwise.
    x, _info = cg(A, b, x0=b / a, rtol=TARGET_RTOL, atol=0.0,
                  maxiter=50 * max(nx, ny), callback=count)
    residual = float(np.linalg.norm(b - A @ x) / b_norm)
    if residual > CONTRACT_RTOL:
        raise FieldSolveError(
            f"scent solve stalled at relative residual {residual:.3e} "
            f"after {iters} iterations (required {CONTRACT_RTOL})"
        )
    values[fluid] = x
    return values, residual, iters


def _bilinear(field: ScentField, pts: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of per-cell data at (M, 2) points.

    Uses the enclosing 2x2 cell-center stencil; the weight of solid or
    out-of-grid cells is redistributed proportionally over the remaining
    fluid cells of the stencil.
    """
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
    usable = inside & field.fluid[iic, jjc]
    wgt = np.where(usable, wgt, 0.0)
    wsum = wgt.sum(axis=1)
    vals = data[iic, jjc]
    if vals.ndim == 2:
        return (wgt * vals).sum(axis=1) / wsum
    return (wgt[:, :, None] * vals).sum(axis=1) / wsum[:, None]


def sample_value_many(field: ScentField, pts: np.ndarray) -> np.ndarray:
    """Interpolated scent values at (M, 2) points assumed to lie in the fluid.

    A point whose 2x2 stencil holds no fluid cell, such as one deep inside
    an obstacle, gives NaN.
    """
    return _bilinear(field, pts, field.values)


def sample_gradient_many(field: ScentField, pts: np.ndarray) -> np.ndarray:
    """Interpolated scent gradients at (M, 2) points assumed to lie in the fluid.

    A point whose 2x2 stencil holds no fluid cell, such as one deep inside
    an obstacle, gives NaN; step() then raises ForceBlowUpError.
    """
    return _bilinear(field, pts, field.grad)


def write_field_csv(field: ScentField, path):
    """Write the field as one CSV row per grid cell."""
    xs, ys = field.cell_centers()
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(FIELD_CSV_HEADER)
        for i in range(field.nx):
            for j in range(field.ny):
                out.writerow([
                    i, j, float(xs[i]), float(ys[j]), int(field.fluid[i, j]),
                    float(field.values[i, j]),
                    float(field.grad[i, j, 0]), float(field.grad[i, j, 1]),
                ])


def read_field_csv(path) -> ScentField:
    """Rebuild a plottable field from a CSV written by write_field_csv.

    The arena is not reconstructed (set to None); the fluid mask carries
    the obstacle footprint.
    """
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        if header != FIELD_CSV_HEADER:
            raise ValueError(f"not a field CSV (header {header})")
        rows = [(int(r[0]), int(r[1]), float(r[2]), float(r[3]), int(r[4]),
                 float(r[5]), float(r[6]), float(r[7])) for r in rd]
    if not rows:
        raise ValueError("field CSV has no cells")
    nx = max(r[0] for r in rows) + 1
    ny = max(r[1] for r in rows) + 1
    if len(rows) != nx * ny:
        raise ValueError(f"field CSV is missing cells ({len(rows)} rows for {nx}x{ny} grid)")
    fluid = np.zeros((nx, ny), dtype=bool)
    values = np.zeros((nx, ny))
    grad = np.zeros((nx, ny, 2))
    xs = np.zeros(nx)
    ys = np.zeros(ny)
    for i, j, xc, yc, fl, u, gx, gy in rows:
        fluid[i, j] = bool(fl)
        values[i, j] = u
        grad[i, j, 0] = gx
        grad[i, j, 1] = gy
        xs[i] = xc
        ys[j] = yc
    h = xs[1] - xs[0] if nx > 1 else (ys[1] - ys[0] if ny > 1 else 1.0)
    origin = (xs[0] - h / 2, ys[0] - h / 2)
    return ScentField(arena=None, spacing=float(h), origin=origin, nx=nx, ny=ny,
                      fluid=fluid, values=values, grad=grad,
                      source=np.zeros((nx, ny)))
