"""Test helpers shared across the test modules."""

import numpy as np

from schoolsim.geometry import AxisRect, Vec2, contains_many


def rect(x0, y0, x1, y1):
    return AxisRect(Vec2(x0, y0), Vec2(x1, y1))


def brute_first_hit(arena, origin, direction):
    """Scan every wall and obstacle plane crossing; keep the nearest."""
    candidates = []
    pieces = [arena.bounds] + list(arena.obstacles)
    for piece in pieces:
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
        pts = np.concatenate([pts, cand[contains_many(arena, cand)]])
    return pts[:n]
