"""Arena geometry: rectangular tank with axis-aligned rectangular obstacles.

Provides point containment tests, first-hit ray casting against the walls
and obstacle faces, and clamping of points back into the fluid region.
Each kernel takes an (N, 2) array of points; one point is a 1-row array.
All boundaries are axis-aligned, so hits and normals are computed with the
slab method face by face.
"""

from dataclasses import dataclass, field
from functools import cached_property
import math

import numpy as np

# Ray parameters below this are treated as "at the origin" and ignored.
RAY_TOL = 1e-12
# Two coordinates closer than this are considered the same grid line.
COINCIDE_TOL = 1e-12


@dataclass(frozen=True)
class Vec2:
    """A 2D point or vector with finite components."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"Vec2 components must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class AxisRect:
    """Axis-aligned rectangle with strictly positive extent on both axes."""

    lo: Vec2
    hi: Vec2

    def __post_init__(self):
        if not (self.lo.x < self.hi.x and self.lo.y < self.hi.y):
            raise ValueError(
                f"AxisRect requires lo < hi on both axes, got lo=({self.lo.x}, {self.lo.y}) "
                f"hi=({self.hi.x}, {self.hi.y})"
            )

    @property
    def width(self) -> float:
        return self.hi.x - self.lo.x

    @property
    def height(self) -> float:
        return self.hi.y - self.lo.y

    def intersects_interior(self, other: "AxisRect") -> bool:
        """True if the open interiors of the two rectangles overlap."""
        return (
            self.lo.x < other.hi.x
            and other.lo.x < self.hi.x
            and self.lo.y < other.hi.y
            and other.lo.y < self.hi.y
        )


@dataclass
class Arena:
    """Rectangular tank minus zero or more rectangular obstacles.

    Obstacles must lie inside the bounds (they may share edges with the
    outer wall) and must not overlap each other.  Treated as immutable
    once constructed.
    """

    bounds: AxisRect
    obstacles: tuple[AxisRect, ...] = field(default_factory=tuple)

    def __post_init__(self):
        self.obstacles = tuple(self.obstacles)
        b = self.bounds
        for i, ob in enumerate(self.obstacles):
            if not (
                b.lo.x <= ob.lo.x
                and ob.hi.x <= b.hi.x
                and b.lo.y <= ob.lo.y
                and ob.hi.y <= b.hi.y
            ):
                raise ValueError(f"obstacle {i} extends outside the arena bounds")
        for i in range(len(self.obstacles)):
            for j in range(i + 1, len(self.obstacles)):
                if self.obstacles[i].intersects_interior(self.obstacles[j]):
                    raise ValueError(f"obstacles {i} and {j} overlap")

    @cached_property
    def _faces(self):
        """Boundary faces as parallel arrays (axis, coord, span, normal sign).

        ``axis`` is the axis along which the face is constant (0 = a
        vertical face with a +-x normal, 1 = horizontal).  Obstacle faces
        that lie on the outer wall are dropped, and the wall spans they
        cover are cut out, so only fluid-side boundary remains.
        """
        b = self.bounds
        axes, coords, s_lo, s_hi, signs = [], [], [], [], []

        def wall(axis, coord, lo, hi, sign, cut_intervals):
            # Subtract obstacle contact intervals from a wall span.
            pieces = [(lo, hi)]
            for c_lo, c_hi in cut_intervals:
                nxt = []
                for a, b_ in pieces:
                    if c_hi <= a + COINCIDE_TOL or c_lo >= b_ - COINCIDE_TOL:
                        nxt.append((a, b_))
                        continue
                    if c_lo > a + COINCIDE_TOL:
                        nxt.append((a, c_lo))
                    if c_hi < b_ - COINCIDE_TOL:
                        nxt.append((c_hi, b_))
                pieces = nxt
            for a, b_ in pieces:
                axes.append(axis)
                coords.append(coord)
                s_lo.append(a)
                s_hi.append(b_)
                signs.append(sign)

        def touches(a, b_):
            return abs(a - b_) <= COINCIDE_TOL

        obs = self.obstacles
        wall(0, b.lo.x, b.lo.y, b.hi.y, +1.0,
             [(o.lo.y, o.hi.y) for o in obs if touches(o.lo.x, b.lo.x)])
        wall(0, b.hi.x, b.lo.y, b.hi.y, -1.0,
             [(o.lo.y, o.hi.y) for o in obs if touches(o.hi.x, b.hi.x)])
        wall(1, b.lo.y, b.lo.x, b.hi.x, +1.0,
             [(o.lo.x, o.hi.x) for o in obs if touches(o.lo.y, b.lo.y)])
        wall(1, b.hi.y, b.lo.x, b.hi.x, -1.0,
             [(o.lo.x, o.hi.x) for o in obs if touches(o.hi.y, b.hi.y)])

        for o in obs:
            # Normals point away from the obstacle, into the fluid.  A face
            # flush with the outer wall is not a reflective face at all.
            if not touches(o.lo.x, b.lo.x):
                axes.append(0); coords.append(o.lo.x)
                s_lo.append(o.lo.y); s_hi.append(o.hi.y); signs.append(-1.0)
            if not touches(o.hi.x, b.hi.x):
                axes.append(0); coords.append(o.hi.x)
                s_lo.append(o.lo.y); s_hi.append(o.hi.y); signs.append(+1.0)
            if not touches(o.lo.y, b.lo.y):
                axes.append(1); coords.append(o.lo.y)
                s_lo.append(o.lo.x); s_hi.append(o.hi.x); signs.append(-1.0)
            if not touches(o.hi.y, b.hi.y):
                axes.append(1); coords.append(o.hi.y)
                s_lo.append(o.lo.x); s_hi.append(o.hi.x); signs.append(+1.0)

        return (
            np.array(axes, dtype=np.int64),
            np.array(coords, dtype=float),
            np.array(s_lo, dtype=float),
            np.array(s_hi, dtype=float),
            np.array(signs, dtype=float),
        )

    @cached_property
    def _ray_table(self):
        """Per-face tables for ray_hits_many, derived from _faces.

        The (2, F) column index [axis, other axis]; the face coordinates
        and spans widened by RAY_TOL; a (2, F) tie-break rank for rays that
        prefer x faces (row 0) or y faces (row 1); and an (F + 1, 2) normals
        table whose last row, the "no hit" face, is zero.
        """
        axes, coords, s_lo, s_hi, signs = self._faces
        n = axes.shape[0]
        rank = np.array([(axes != pref) * n + np.arange(n) for pref in (0, 1)])
        normals = np.zeros((n + 1, 2))
        normals[np.arange(n), axes] = signs
        return (np.array([axes, 1 - axes]), coords, s_lo - RAY_TOL, s_hi + RAY_TOL,
                rank, normals)

    @cached_property
    def _clamp_table(self):
        """Bounds as arrays for clamp_many: (lo, hi) of the tank, shape (2,),
        and of the obstacles, shape (K, 2)."""
        b = self.bounds
        obs = self.obstacles
        return (np.array([b.lo.x, b.lo.y]), np.array([b.hi.x, b.hi.y]),
                np.array([[o.lo.x, o.lo.y] for o in obs]).reshape(-1, 2),
                np.array([[o.hi.x, o.hi.y] for o in obs]).reshape(-1, 2))


def contains_many(arena: Arena, pts: np.ndarray) -> np.ndarray:
    """True where a point of the (N, 2) array lies in the fluid.

    The fluid is the closed bounds minus every open obstacle interior, so
    wall and obstacle-face points count as inside.
    """
    b = arena.bounds
    x, y = pts[:, 0], pts[:, 1]
    ok = (x >= b.lo.x) & (x <= b.hi.x) & (y >= b.lo.y) & (y <= b.hi.y)
    for ob in arena.obstacles:
        ok &= ~((x > ob.lo.x) & (x < ob.hi.x) & (y > ob.lo.y) & (y < ob.hi.y))
    return ok


def _first_hits(arena: Arena, origins: np.ndarray, dirs: np.ndarray):
    """Ray-cast core shared by ray_hits_many and the avoidance force.

    Returns ``(has_hit, face, normals, distances, s)``: the index of the
    face each ray strikes first (F where none is struck), its normal (zero
    where none), the distance to it (inf where none), and the (N, F) ray
    parameter of every valid face crossing (inf elsewhere).
    """
    cols, coords, lo, hi, rank, normals = arena._ray_table
    n_rays, n_faces = origins.shape[0], coords.shape[0]
    if n_faces == 0:  # obstacles fill the tank: there is nothing to strike
        return (np.zeros(n_rays, dtype=bool), np.zeros(n_rays, dtype=np.intp),
                np.zeros((n_rays, 2)), np.full(n_rays, np.inf), np.zeros((n_rays, 0)))
    o = origins[:, cols]                          # (N, 2, F): face axis, other axis
    d = dirs[:, cols]
    gap = coords - o[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = gap / d[:, 0]                         # ray parameter per face
        hit_other = o[:, 1] + s * d[:, 1]
    # A non-finite s puts hit_other off every (finite) span.
    s = np.where((s > RAY_TOL) & (hit_other >= lo) & (hit_other <= hi), s, np.inf)
    s_min = s.min(axis=1)
    has_hit = s_min < np.inf

    # Tie-break within RAY_TOL of the minimum: prefer the face whose axis has
    # the larger |dir| component (x on exact ties), then lowest face index.
    mag = np.abs(dirs)
    pref = (mag[:, 0] < mag[:, 1]).astype(np.intp)
    best = np.where(s <= (s_min + RAY_TOL)[:, None], rank[pref],
                    2 * n_faces + 1).argmin(axis=1)
    rows = np.arange(n_rays)
    # The hit lies on the face plane, coords - o away along the face axis.
    dist = np.hypot(gap[rows, best], hit_other[rows, best] - o[rows, 1, best])
    face = np.where(has_hit, best, n_faces)
    return has_hit, face, normals[face], np.where(has_hit, dist, np.inf), s


def ray_hits_many(arena: Arena, origins: np.ndarray, dirs: np.ndarray):
    """First boundary hit for each of N rays.

    Returns ``(has_hit, points, normals, distances)`` with shapes
    (N,), (N, 2), (N, 2), (N,).  Rows with a zero direction (or, in
    degenerate floating-point situations, no face intersection) have
    ``has_hit`` False.  Corner ties go to the face whose constant axis
    carries the larger |direction| component, x-axis faces winning exact
    ties.
    """
    axes, coords, *_ = arena._faces
    has_hit, face, normals, dist, s = _first_hits(arena, origins, dirs)
    hit = np.flatnonzero(has_hit)
    s_best = np.zeros(origins.shape[0])
    s_best[hit] = s[hit, face[hit]]
    points = origins + s_best[:, None] * dirs
    # Snap the constant coordinate of the hit onto the face plane.
    points[hit, axes[face[hit]]] = coords[face[hit]]
    return has_hit, points, normals, np.where(has_hit, dist, 0.0)


def clamp_many(arena: Arena, pts: np.ndarray, eps: float):
    """Clamp N points into the fluid region, eps away from the boundary.

    Returns ``(clamped, moved)`` where moved is an (N, 2) boolean mask of
    the coordinates that were adjusted (i.e. the local boundary normal
    directions involved).  A fluid point within eps of an outer wall is
    moved to eps and flagged; one within eps of an obstacle face is left
    alone.
    """
    b = arena.bounds
    b_lo, b_hi, ob_lo, ob_hi = arena._clamp_table
    out = np.minimum(np.maximum(pts, b_lo + eps), b_hi - eps)
    moved = out != pts
    # One test against every obstacle at once; the sequential pass below runs
    # only when a point is trapped, as its order settles points near
    # adjacent obstacles.
    per_obstacle = out[:, None, :]
    if not ((per_obstacle > ob_lo) & (per_obstacle < ob_hi)).all(axis=2).any():
        return out, moved

    for ob in arena.obstacles:
        inside = (
            (out[:, 0] > ob.lo.x) & (out[:, 0] < ob.hi.x)
            & (out[:, 1] > ob.lo.y) & (out[:, 1] < ob.hi.y)
        )
        if not inside.any():
            continue
        # Push each trapped point out through the nearest usable face; a
        # face flush with the outer wall would push it out of bounds, so
        # its exit cost is infinite.
        exits = []
        exits.append((out[:, 0] - ob.lo.x, 0, ob.lo.x - eps, ob.lo.x - eps >= b.lo.x))
        exits.append((ob.hi.x - out[:, 0], 0, ob.hi.x + eps, ob.hi.x + eps <= b.hi.x))
        exits.append((out[:, 1] - ob.lo.y, 1, ob.lo.y - eps, ob.lo.y - eps >= b.lo.y))
        exits.append((ob.hi.y - out[:, 1], 1, ob.hi.y + eps, ob.hi.y + eps <= b.hi.y))
        costs = np.stack([np.where(ok, c, np.inf) for c, _, _, ok in exits])
        choice = costs.argmin(axis=0)
        for k, (_, axis, target, ok) in enumerate(exits):
            sel = inside & (choice == k)
            if sel.any():
                out[sel, axis] = target
                moved[sel, axis] = True
    return out, moved
