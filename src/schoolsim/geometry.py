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
    obstacles: tuple = field(default_factory=tuple)

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


def ray_hits_many(arena: Arena, origins: np.ndarray, dirs: np.ndarray):
    """First boundary hit for each of N rays.

    Returns ``(has_hit, points, normals, distances)`` with shapes
    (N,), (N, 2), (N, 2), (N,).  Rows with a zero direction (or, in
    degenerate floating-point situations, no face intersection) have
    ``has_hit`` False.  Corner ties go to the face whose constant axis
    carries the larger |direction| component, x-axis faces winning exact
    ties.
    """
    axes, coords, s_lo, s_hi, signs = arena._faces
    n_rays = origins.shape[0]
    n_faces = axes.shape[0]
    if n_faces == 0:
        z = np.zeros(n_rays, dtype=bool)
        return z, np.zeros((n_rays, 2)), np.zeros((n_rays, 2)), np.zeros(n_rays)

    o_axis = origins[:, axes]                     # (N, F) origin coord on face axis
    d_axis = dirs[:, axes]                        # (N, F) direction along face axis
    other = 1 - axes
    o_other = origins[:, other]
    d_other = dirs[:, other]

    with np.errstate(divide="ignore", invalid="ignore"):
        s = (coords[None, :] - o_axis) / d_axis   # ray parameter per face
        hit_other = o_other + s * d_other

    valid = (
        np.isfinite(s)
        & (s > RAY_TOL)
        & (hit_other >= s_lo[None, :] - RAY_TOL)
        & (hit_other <= s_hi[None, :] + RAY_TOL)
    )
    s_masked = np.where(valid, s, np.inf)
    s_min = s_masked.min(axis=1)
    has_hit = np.isfinite(s_min)

    # Tie-break within RAY_TOL of the minimum: prefer the face whose axis has
    # the larger |dir| component (x on exact ties), then lowest face index.
    candidate = valid & (s_masked <= s_min[:, None] + RAY_TOL)
    pref_axis = (np.abs(dirs[:, 0]) < np.abs(dirs[:, 1])).astype(np.int64)  # 0 -> x wins
    penalty = (axes[None, :] != pref_axis[:, None]).astype(np.int64)
    order = np.where(candidate, penalty * n_faces + np.arange(n_faces)[None, :],
                     2 * n_faces + 1)
    best = order.argmin(axis=1)

    s_best = s_masked[np.arange(n_rays), best]
    s_best = np.where(has_hit, s_best, 0.0)
    points = origins + s_best[:, None] * dirs
    normals = np.zeros((n_rays, 2))
    ax_best = axes[best]
    normals[np.arange(n_rays), ax_best] = signs[best]
    normals[~has_hit] = 0.0
    # Snap the constant coordinate of the hit onto the face plane.
    points[np.arange(n_rays), ax_best] = np.where(has_hit, coords[best],
                                                  points[np.arange(n_rays), ax_best])
    distances = np.where(has_hit, np.hypot(points[:, 0] - origins[:, 0],
                                           points[:, 1] - origins[:, 1]), 0.0)
    return has_hit, points, normals, distances


def clamp_many(arena: Arena, pts: np.ndarray, eps: float):
    """Clamp N points into the fluid region, eps away from the boundary.

    Returns ``(clamped, moved)`` where moved is an (N, 2) boolean mask of
    the coordinates that were adjusted (i.e. the local boundary normal
    directions involved).  A fluid point within eps of an outer wall is
    moved to eps and flagged; one within eps of an obstacle face is left
    alone.
    """
    b = arena.bounds
    out = pts.copy()
    lo = np.array([b.lo.x + eps, b.lo.y + eps])
    hi = np.array([b.hi.x - eps, b.hi.y - eps])
    clipped = np.clip(out, lo, hi)
    moved = clipped != out
    out = clipped

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
