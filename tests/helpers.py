"""Test helpers shared across the test modules."""

import base64
import re
import struct
import zlib

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


PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
HEATMAP_RE = re.compile(r'<image x="([\d.]+)" y="([\d.]+)" width="([\d.]+)" '
                        r'height="([\d.]+)" [^>]*href="data:image/png;base64,([^"]+)"/>')


def decode_png(data: bytes) -> np.ndarray:
    """The (height, width, 3) pixels of an 8-bit RGB PNG whose scanlines all
    use filter 0, after checking its chunks' CRCs and its zlib stream."""
    assert data[:8] == PNG_SIGNATURE
    chunks, pos = [], 8
    while pos < len(data):
        size, kind = struct.unpack(">I4s", data[pos:pos + 8])
        body = data[pos + 8:pos + 8 + size]
        (crc,) = struct.unpack(">I", data[pos + 8 + size:pos + 12 + size])
        assert zlib.crc32(kind + body) == crc, kind
        chunks.append((kind, body))
        pos += 12 + size
    assert [kind for kind, _ in chunks] == [b"IHDR", b"IDAT", b"IEND"]
    width, height, depth, colour, *methods = struct.unpack(">IIBBBBB", chunks[0][1])
    assert (depth, colour, methods) == (8, 2, [0, 0, 0])
    raw = np.frombuffer(zlib.decompress(chunks[1][1]), dtype=np.uint8)
    rows = raw.reshape(height, 1 + 3 * width)
    assert not rows[:, 0].any(), "a scanline uses a filter other than None"
    return rows[:, 1:].reshape(height, width, 3)


def heatmap_image(svg: str):
    """The heatmap's one image: its (x, y, width, height) in pixels and its
    decoded (rows, columns, 3) pixels, the top row first."""
    (match,) = HEATMAP_RE.findall(svg)
    return [float(v) for v in match[:4]], decode_png(base64.b64decode(match[4]))
