"""Steady food-scent field on a masked cell-centered grid.

The scent concentration U satisfies a screened diffusion balance
``-diffusion * lap(U) + decay * U = f`` over the fluid region, with
zero-flux (no-leak) conditions on the tank walls and obstacle faces.
Discretization is the standard 5-point stencil on cell centers with
ghost-cell closure for the zero-flux faces; the resulting symmetric
positive-definite system is solved by a conjugate-gradient loop that
repeats scipy's ``cg`` operation for operation, with a matrix-free
stencil product that rounds as scipy's CSR product does.  numpy is the
only dependency.

The source f is ``food.density`` inside the food disc and 0 elsewhere,
sampled at cell centers.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import tables
from .geometry import Arena, Vec2, contains_many

DEFAULT_SPACING = 0.02
GRID_TOL = 1e-9
# Residual the solver aims for, and the level it must reach not to error.
TARGET_RTOL = 1e-12
CONTRACT_RTOL = 1e-8
# Rows per block of the stencil matvec, whose slices then stay in L2 cache.
BLOCK_ROWS = 32768


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

    @cached_property
    def _stencil(self):
        """Sampling tables, built on first use.

        For each cell of the grid padded by two solid cells on every side,
        the flat index of its fluid cell, or -1 where it is solid or
        padding; the flat offsets of a 2x2 stencil's four corners; and the
        origin, the clip range of the low corner and its flat strides.
        Clipping the low corner into [-2, n] maps every stencil that leaves
        the grid onto solid padding, as the unpadded grid would.
        """
        index = np.where(self.fluid, np.arange(self.nx * self.ny).reshape(self.nx, self.ny), -1)
        strides = np.array([self.ny + 4, 1])
        return (np.pad(index, 2, constant_values=-1).ravel(),
                np.array([0, strides[0], 1, strides[0] + 1]), np.array(self.origin, dtype=float),
                np.array([self.nx, self.ny]), strides, 2 * strides.sum())


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


def _fluid_and_source(arena: Arena, food: FoodSpec, h: float, nx: int, ny: int, source):
    """Fluid mask and emission on the cell centres.  The coordinate grids
    die on return, so none of them is alive during the solve."""
    b = arena.bounds
    xy = np.stack(np.broadcast_arrays(b.lo.x + (np.arange(nx)[:, None] + 0.5) * h,
                                      b.lo.y + (np.arange(ny) + 0.5) * h), axis=-1)
    xg, yg = xy[..., 0], xy[..., 1]
    fluid = contains_many(arena, xy.reshape(-1, 2)).reshape(nx, ny)
    if source is None:
        d2 = (xg - food.center.x) ** 2 + (yg - food.center.y) ** 2
        f = np.where(d2 <= food.radius**2, food.density, 0.0)
    else:
        f = np.broadcast_to(np.asarray(source(xg, yg), dtype=float), (nx, ny)).copy()
    f[~fluid] = 0.0
    return fluid, f


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
    fluid, f = _fluid_and_source(arena, food, h, nx, ny, source)
    values, residual, iterations = _solve_linear(fluid, f, food, h)

    # Central differences where both axis neighbors are fluid; the component
    # normal to a boundary-adjacent face is +0.0, matching the zero-flux
    # closure, and the sampler's solid and off-grid corners read the last cell's.
    grad = np.zeros((nx, ny, 2))
    inv2h = 1.0 / (2.0 * h)
    for axis in (0, 1):
        v, fl, g = (np.moveaxis(x, axis, 0) for x in (values, fluid, grad[:, :, axis]))
        np.multiply(np.subtract(v[2:], v[:-2], out=g[1:-1]), inv2h, out=g[1:-1])
        g[1:-1][~(fl[1:-1] & fl[2:] & fl[:-2])] = 0.0

    b = arena.bounds
    return ScentField(
        spacing=h, origin=(b.lo.x, b.lo.y), nx=nx, ny=ny, fluid=fluid, values=values,
        grad=grad, source=f, residual=residual, iterations=iterations,
    )


def _operator(fluid, a, w):
    """The masked 5-point matrix over the fluid cells in C order as a matvec
    ``A(p)``, which returns ``A @ p`` in a buffer of its own.  Each row adds
    its W (i-1, j), S (i, j-1), centre, N (i, j+1) and E (i+1, j) terms in
    that order from +0.0, as a column-sorted CSR row does, which fixes CG's
    rounding and every digest after it; do not reorder.  Interior rows read
    their terms as slices of ``-w * p`` and ``(a + 4w) * p``.  Rows by a wall
    or an obstacle are summed again from tables in which a missing link
    weighs 0: its signed zero leaves a sum started at +0.0 unchanged."""
    nx, ny = fluid.shape
    n = int(fluid.sum())
    idx = np.full((nx + 2, ny), -1, dtype=np.int32)
    idx[1:-1][fluid] = np.arange(n, dtype=np.int32)
    west, east = idx[:-2][fluid], idx[2:][fluid]
    del idx
    north = np.pad(fluid[:, 1:], ((0, 0), (0, 1)))[fluid]
    links = np.stack((west >= 0, np.pad(north[:-1], (1, 0)), north, east >= 0))
    cells = np.arange(n, dtype=np.int32)[west >= 0]
    offset = cells - west[cells]
    # Runs of consecutive W-linked rows whose W neighbour lies at one index
    # offset; their E images then reach every E-linked row once.
    cut = np.flatnonzero((np.diff(offset) != 0) | (np.diff(cells) != 1)) + 1
    runs = [(int(c[0]), int(c[-1]) + 1, int(d[0]))
            for c, d in zip(np.split(cells, cut), np.split(offset, cut)) if c.size]
    del cells, offset, cut
    fix = np.flatnonzero(~links.all(axis=0))
    has = np.insert(links[:, fix], 2, True, axis=0)
    nbr = np.where(has, np.stack((west[fix], fix - 1, fix, fix + 1, east[fix])), fix)
    coef = np.where(has, -w, 0.0)
    coef[2] = a + w * links[:, fix].sum(axis=0)

    # (start, shift into -w * p or None for the centre, first row, end row):
    # W adds its term to +0.0, and each later term to the row's sum so far.
    # A row without a W link gets no W term, so its S term reads whatever out
    # holds, zero at first, until the fix pass overwrites it.
    out, wp, tmp = np.zeros(n), np.empty(n), np.empty(min(n, BLOCK_ROWS))
    terms = []
    for b0 in range(0, n, BLOCK_ROWS):
        b1 = min(b0 + BLOCK_ROWS, n)
        block = ([(0.0, -d, max(s, b0), min(e, b1)) for s, e, d in runs]
                 + [(None, -1, max(b0, 1), b1), (None, None, b0, b1),
                    (None, 1, b0, min(b1, n - 1))]
                 + [(None, d, max(s - d, b0), min(e - d, b1)) for s, e, d in runs])
        terms += [(slice(lo, hi) if shift is None else wp[lo + shift:hi + shift],
                   out[lo:hi] if start is None else start, out[lo:hi])
                  for start, shift, lo, hi in block if lo < hi]

    def matvec(p):
        np.multiply(p, -w, out=wp)
        for term, start, rows in terms:
            if isinstance(term, slice):  # the centre, scaled in scratch
                term = np.multiply(p[term], a + 4 * w, out=tmp[:rows.size])
            np.add(start, term, out=rows)
        out[fix] = reduce(np.add, coef * p[nbr], 0.0)
        return out
    return matvec


def _solve_linear(fluid, f, food, h):
    """Assemble and CG-solve the masked 5-point system.  Returns
    (values, relative residual, iterations)."""
    a = food.decay
    b = f[fluid]
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros(fluid.shape), 0.0, 0
    A = _operator(fluid, a, food.diffusion / h**2)

    # scipy's unpreconditioned cg, op for op, so both round alike; the dots
    # go through BLAS and round with its thread count.  The reaction-limit
    # guess b/a is exact for constant sources and a reasonable start otherwise.
    x = b / a
    r = b - A(x)
    del b
    iters = 0
    while iters < 50 * max(fluid.shape):
        rho = r @ r
        if np.sqrt(rho) < TARGET_RTOL * b_norm:
            break
        if iters:
            p *= rho / rho_prev
            p += r
        else:
            p = r.copy()
        q = A(p)
        alpha = rho / (p @ q)
        # q is dead once r is updated, so it holds x's step.
        r -= np.multiply(alpha, q, out=q)
        x += np.multiply(alpha, p, out=q)
        rho_prev = rho
        iters += 1
    p = q = None  # neither exists if the loop never ran
    residual = float(np.linalg.norm(np.subtract(f[fluid], A(x), out=r)) / b_norm)
    del A
    if residual > CONTRACT_RTOL:
        raise FieldSolveError(
            f"scent solve stalled at relative residual {residual:.3e} "
            f"after {iters} iterations (required {CONTRACT_RTOL})"
        )
    values = np.zeros(fluid.shape)
    values[fluid] = x
    return values, residual, iters


def sample_gradient_many(field: ScentField, pts: np.ndarray) -> np.ndarray:
    """Interpolated scent gradients at (M, 2) points assumed to lie in the fluid.

    Bilinear in the enclosing 2x2 cell-center stencil; the weight of solid
    or out-of-grid cells is redistributed proportionally over the remaining
    fluid cells of the stencil.  A point whose stencil holds no fluid cell,
    such as one deep inside an obstacle, gives NaN; step() then raises
    ForceBlowUpError.
    """
    index, corners, origin, n, strides, base = field._stencil
    uv = (pts - origin) / field.spacing - 0.5
    low = np.floor(uv)
    f = uv - low
    cell = np.minimum(np.maximum(low.astype(np.int64), -2), n) @ strides + base
    # [1 - fx, 1 - fy, fx, fy] -> weights (1-fx)(1-fy), fx(1-fy), (1-fx)fy, fx fy
    w = np.concatenate((1 - f, f), axis=1).reshape(-1, 2, 2)
    k = index[cell[:, None] + corners]
    wgt = np.where(k >= 0, (w[:, None, :, 0] * w[:, :, None, 1]).reshape(-1, 4), 0.0)
    # A solid or off-grid corner reads the last cell's gradient, which is +0.0
    # on the grid's edge, so at weight +0.0 it adds no -0.0 term.
    grad = field.grad.reshape(-1, 2)[k]
    return (wgt[:, :, None] * grad).sum(axis=1) / wgt.sum(axis=1)[:, None]


def write_field_csv(field: ScentField, path):
    """Write the field as one CSV row per grid cell, one grid row at a time."""
    xs, ys = field.cell_centers()
    j = np.arange(field.ny)
    tables.write(path, "field", (
        (np.full(field.ny, i), j, np.full(field.ny, x), ys, field.fluid[i].astype(np.int8),
         field.values[i], *field.grad[i].T)
        for i, x in enumerate(xs)))


def read_field_csv(path) -> ScentField:
    """Rebuild a plottable field from a CSV written by write_field_csv.

    The rows may come in any order, and their centres must lie within
    GRID_TOL of one uniform grid.  The fluid mask carries the obstacle
    footprint; the source is not stored, so it reads back as zeros.
    """
    cells = tables.read(path, "field")
    if not len(cells):
        raise ValueError("field CSV has no cells")
    i, j = cells[:, :2].T.astype(int)
    nx, ny = int(i.max()) + 1, int(j.max()) + 1
    distinct = np.unique(i * ny + j).size
    if len(cells) != nx * ny or distinct != nx * ny:
        raise ValueError(f"field CSV is missing cells ({distinct} distinct cells in "
                         f"{len(cells)} rows for {nx}x{ny} grid)")
    fluid = np.zeros((nx, ny), dtype=bool)
    values = np.zeros((nx, ny))
    grad = np.zeros((nx, ny, 2))
    xs = np.zeros(nx)
    ys = np.zeros(ny)
    fluid[i, j] = cells[:, 4] != 0
    values[i, j] = cells[:, 5]
    grad[i, j] = cells[:, 6:]
    xs[i] = cells[:, 2]
    ys[j] = cells[:, 3]
    h = xs[1] - xs[0] if nx > 1 else (ys[1] - ys[0] if ny > 1 else 1.0)
    origin = (xs[0] - h / 2, ys[0] - h / 2)
    if not h > 0 or (abs(origin + (cells[:, :2] + 0.5) * h - cells[:, 2:4]) > GRID_TOL).any():
        raise ValueError("field CSV cell centres must lie on one uniform grid")
    return ScentField(spacing=float(h), origin=origin, nx=nx, ny=ny, fluid=fluid,
                      values=values, grad=grad, source=np.zeros((nx, ny)))
