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
from typing import NamedTuple

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


class _Table(NamedTuple):
    """Arena._table: the tank and obstacles as corners, and the fluid-side
    faces as parallel arrays for the ray cast."""

    box: np.ndarray      # (2, 2): the tank's [lo, hi] corners, each (x, y)
    obs: np.ndarray      # (K, 2, 2): each obstacle's corners, the same way
    cols: np.ndarray     # (2, F): each face's constant axis, then the other
    coords: np.ndarray   # (F,): the face planes
    lo: np.ndarray       # (F,): the spans along the other axis, widened by
    hi: np.ndarray       # (F,):   RAY_TOL at both ends
    rank: np.ndarray     # (2, F): tie-break rank preferring x (row 0) or y faces
    normals: np.ndarray  # (F + 1, 2): unit normals; the last, "no hit", is zero


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
    def _table(self) -> _Table:
        """The arena as arrays, the only form the kernels read.

        Faces are listed in a fixed order: the walls left, right, bottom and
        top, each minus the spans that obstacles flush with it cover, then
        each obstacle's x-lo, x-hi, y-lo and y-hi faces that are not flush
        with a wall.  Ray-cast ties go to the lowest face, so every
        trajectory depends on this order.
        """
        b = self.bounds
        box = np.array([[b.lo.x, b.lo.y], [b.hi.x, b.hi.y]])
        obs = np.array([[[o.lo.x, o.lo.y], [o.hi.x, o.hi.y]]
                        for o in self.obstacles]).reshape(-1, 2, 2)
        # A face is (axis, coord, span lo, span hi, normal sign): axis 0 is a
        # vertical face with a +-x normal.  Face (axis, side) of a box lies at
        # box[side, axis]; flush[k, side, axis] marks obstacle k's face on the
        # wall there.
        axis, side = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
        flush = np.abs(obs - box) <= COINCIDE_TOL
        faces = []
        for a, s in zip(axis, side):
            # A wall keeps the gaps between the spans of the obstacles flush
            # with it, which are disjoint as obstacles do not overlap.  Its
            # normal points into the tank.
            cut = obs[flush[:, s, a], :, 1 - a]
            cut = cut[np.argsort(cut[:, 0])]
            gaps = np.column_stack((np.append(box[0, 1 - a], cut[:, 1]),
                                    np.append(cut[:, 0], box[1, 1 - a])))
            gaps = gaps[gaps[:, 1] - gaps[:, 0] > COINCIDE_TOL]
            faces.append(np.column_stack(np.broadcast_arrays(
                a, box[s, a], gaps[:, 0], gaps[:, 1], 1 - 2 * s)))
        # Normals point away from the obstacle, into the fluid.
        faces.append(np.stack(np.broadcast_arrays(
            axis, obs[:, side, axis], obs[:, 0, 1 - axis], obs[:, 1, 1 - axis],
            2 * side - 1), axis=-1)[~flush[:, side, axis]])
        axes, coords, s_lo, s_hi, signs = np.concatenate(faces).T.copy()
        axes = axes.astype(np.int64)
        n = axes.shape[0]
        rank = np.array([(axes != pref) * n + np.arange(n) for pref in (0, 1)])
        normals = np.zeros((n + 1, 2))
        normals[np.arange(n), axes] = signs
        return _Table(box, obs, np.array([axes, 1 - axes]), coords,
                      s_lo - RAY_TOL, s_hi + RAY_TOL, rank, normals)


def contains_many(arena: Arena, pts: np.ndarray) -> np.ndarray:
    """True where a point of the (N, 2) array lies in the fluid.

    The fluid is the closed bounds minus every open obstacle interior, so
    wall and obstacle-face points count as inside.
    """
    (x0, y0), (x1, y1) = arena._table.box
    x, y = pts[:, 0], pts[:, 1]
    ok = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
    # Column by column, one obstacle at a time: an (N, K, 2) broadcast is
    # ten times slower on a field grid.
    for (x0, y0), (x1, y1) in arena._table.obs:
        ok &= ~((x > x0) & (x < x1) & (y > y0) & (y < y1))
    return ok


def _first_hits(arena: Arena, origins: np.ndarray, dirs: np.ndarray):
    """Ray-cast core shared by ray_hits_many and total_forces.

    Returns ``(has_hit, face, normals, distances, s)``: the index of the
    face each ray strikes first (F where none is struck), its normal (zero
    where none), the distance to it (inf where none), and the (N, F) ray
    parameter of every valid face crossing (inf elsewhere).
    """
    _, _, cols, coords, lo, hi, rank, normals = arena._table
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
    t = arena._table
    has_hit, face, normals, dist, s = _first_hits(arena, origins, dirs)
    hit = np.flatnonzero(has_hit)
    s_best = np.zeros(origins.shape[0])
    s_best[hit] = s[hit, face[hit]]
    points = origins + s_best[:, None] * dirs
    # Snap the constant coordinate of the hit onto the face plane.
    points[hit, t.cols[0, face[hit]]] = t.coords[face[hit]]
    return has_hit, points, normals, np.where(has_hit, dist, 0.0)


def clamp_many(arena: Arena, pts: np.ndarray, eps: float):
    """Clamp N points into the fluid region, eps away from the boundary.

    Returns ``(clamped, moved)`` where moved is an (N, 2) boolean mask of
    the coordinates that were adjusted (i.e. the local boundary normal
    directions involved).  A fluid point within eps of an outer wall is
    moved to eps and flagged; one within eps of an obstacle face is left
    alone.  A point inside an obstacle leaves it through the nearest face
    whose landing point, eps beyond the face, is in the fluid: never
    through a face flush with the outer wall, nor into an obstacle that
    touches this one.  A point walled in on all four sides by touching
    obstacles and the outer wall has no such face.  It lands eps beyond a
    fluid-side face of the table instead, at the point's foot on the face
    or at an end of the face (kept eps in from it), whichever is nearest
    with its landing point in the fluid.
    """
    t = arena._table
    out = np.minimum(np.maximum(pts, t.box[0] + eps), t.box[1] - eps)
    moved = out != pts
    lo, hi = t.obs[:, 0], t.obs[:, 1]
    per_obstacle = out[:, None]
    trapped = ((per_obstacle > lo) & (per_obstacle < hi)).all(axis=2)
    if not trapped.any():
        return out, moved
    # Obstacle interiors are disjoint, so a point is trapped in at most one.
    row, k = np.nonzero(trapped)
    p = out[row]
    # The exits through the x-lo, x-hi, y-lo and y-hi faces, in that order
    # for ties: the distance to each face, and the point moved along the
    # face's axis to eps beyond it.
    axis = np.array([0, 0, 1, 1])
    cost = np.stack([p[:, 0] - lo[k, 0], hi[k, 0] - p[:, 0],
                     p[:, 1] - lo[k, 1], hi[k, 1] - p[:, 1]])
    land = np.repeat(p[None], 4, axis=0)
    land[np.arange(4), :, axis] = np.stack([lo[k, 0] - eps, hi[k, 0] + eps,
                                            lo[k, 1] - eps, hi[k, 1] + eps])
    usable = contains_many(arena, land.reshape(-1, 2)).reshape(4, -1)
    choice = np.where(usable, cost, np.inf).argmin(axis=0)
    out[row] = land[choice, np.arange(row.size)]
    moved[row, axis[choice]] = True
    walled = ~usable.any(axis=0)
    if walled.any() and t.coords.size:  # no face: obstacles fill the tank
        # Candidates on every face: the foot of the point, and the two ends
        # of the span, where a touching obstacle may begin to cover it.
        q = p[walled]
        lo, hi = t.lo + eps, t.hi - eps
        along = np.stack(np.broadcast_arrays(np.clip(q[:, t.cols[1]], lo, hi), lo, hi))
        on_axis = t.cols[0][:, None] == np.arange(2)
        land = np.where(on_axis, t.coords[:, None], along[..., None]) + eps * t.normals[:-1]
        land = land.transpose(1, 0, 2, 3).reshape(q.shape[0], -1, 2)
        usable = contains_many(arena, land.reshape(-1, 2)).reshape(land.shape[:2])
        cost = np.where(usable, np.hypot(*(land - q[:, None]).transpose(2, 0, 1)), np.inf)
        r = row[walled]
        out[r] = land[np.arange(r.size), cost.argmin(axis=1)]
        moved[r] = out[r] != pts[r]
    return out, moved
