"""Deterministic SVG charts: scent heatmaps, trajectory panels, success curves.

Everything is emitted as SVG text, with the heatmap's pixels as a PNG inside
it, so output bytes depend only on the input data.  No plotting library is used.
"""

import base64
import struct
import zlib
from pathlib import Path

import numpy as np

from .geometry import Arena, AxisRect, Vec2
from .scent import ScentField

HEATMAP_PX = 840
PANEL_PX = 320
PANELS = 4  # snapshots drawn when no instants are requested
CURVE_PX = (560, 400)
MARGIN_PX = 36

# Color anchors for the heatmap ramp, chosen so r+g+b increases strictly
# with intensity (the brightest pixel is always the largest value).
RAMP = np.array([(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37)])
SOLID_COLOR = "#222222"
SOLID_RGB = tuple(bytes.fromhex(SOLID_COLOR[1:]))
HEAT_STRETCH = 0.3  # power applied to normalized values so dim regions show

PARTICLE_COLOR = "#1f77b4"
FOOD_COLOR = "#d62728"


def _num(v) -> str:
    """Fixed-precision pixel coordinate, stable across runs."""
    s = f"{float(v):.2f}"
    return "0.00" if s == "-0.00" else s


def ramp_rgb(t) -> np.ndarray:
    """8-bit RGB colours, shape t.shape + (3,), for t in [0, 1] (clamped)
    along the intensity ramp, each channel rounded half to even."""
    pos = np.clip(t, 0.0, 1.0) * (len(RAMP) - 1)
    k = np.minimum(pos.astype(int), len(RAMP) - 2)
    lo, hi = RAMP[k], RAMP[k + 1]
    return np.rint(lo + (hi - lo) * (pos - k)[..., None]).astype(np.uint8)


class WorldTransform:
    """Maps world (x, y) to SVG pixels; y is flipped so up stays up."""

    def __init__(self, bounds, px_width):
        self.scale = (px_width - 2 * MARGIN_PX) / bounds.width
        self.width = px_width
        self.height = 2 * MARGIN_PX + bounds.height * self.scale
        self._x0 = bounds.lo.x
        self._y1 = bounds.hi.y

    def to_px(self, x, y):
        return (MARGIN_PX + (x - self._x0) * self.scale,
                MARGIN_PX + (self._y1 - y) * self.scale)


def _svg_open(width, height):
    """A chart's first parts: the svg element and its white background."""
    return [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_num(width)}" '
            f'height="{_num(height)}" viewBox="0 0 {_num(width)} {_num(height)}">',
            f'<rect width="{_num(width)}" height="{_num(height)}" fill="#ffffff"/>']


def _svg_close(parts):
    """The document: the parts one per line, then the closing tag and a newline."""
    parts += ("</svg>", "")
    return "\n".join(parts)


def _rect_el(x, y, w, h, fill, extra=""):
    return (f'<rect x="{_num(x)}" y="{_num(y)}" width="{_num(w)}" '
            f'height="{_num(h)}" fill="{fill}"{extra}/>')


def _overlay(tf, parts, arena: Arena | None, food_center: Vec2 | None):
    """The arena's obstacles and the food, each drawn only when given."""
    if arena is not None:
        for ob in arena.obstacles:
            px, py = tf.to_px(ob.lo.x, ob.hi.y)
            parts.append(_rect_el(px, py, ob.width * tf.scale, ob.height * tf.scale,
                                  SOLID_COLOR, ' class="obstacle"'))
    if food_center is not None:
        fx, fy = tf.to_px(food_center.x, food_center.y)
        parts.append(f'<circle cx="{_num(fx)}" cy="{_num(fy)}" r="4" fill="none" '
                     f'stroke="{FOOD_COLOR}" stroke-width="1.5" class="food"/>')


def render_heatmap(field: ScentField, arena: Arena | None = None,
                   food_center: Vec2 | None = None) -> str:
    """SVG heatmap of a scent field, one image with a pixel per grid cell (solid
    ones dark, values <= 0 at the ramp's bottom), obstacles and food on top."""
    nx, ny, h = field.nx, field.ny, field.spacing
    ox, oy = field.origin
    tf = WorldTransform(AxisRect(Vec2(ox, oy), Vec2(ox + nx * h, oy + ny * h)), HEATMAP_PX)
    # vmax is 0 only when no fluid value is positive, and every t is then 0.
    vmax = float(np.max(field.values, where=field.fluid, initial=0.0)) or 1.0

    # PNG scanlines run top-down, each led by filter byte 0, so rows[j, i]
    # is the pixel of cell (i, j).  It is filled a grid column at a time.
    raw = np.zeros((ny, 1 + 3 * nx), dtype=np.uint8)
    rows = raw[::-1, 1:].reshape(ny, nx, 3)  # a view: the last axis splits in place
    for i, (fluid, values) in enumerate(zip(field.fluid, field.values)):
        t = (np.maximum(values, 0.0) / vmax) ** HEAT_STRETCH
        rows[:, i] = np.where(fluid[:, None], ramp_rgb(t), SOLID_RGB)
    png = base64.b64encode(_png(raw, nx, ny)).decode("ascii")

    parts = _svg_open(tf.width, tf.height)
    parts.append(f'<image x="{_num(MARGIN_PX)}" y="{_num(MARGIN_PX)}" '
                 f'width="{_num(tf.width - 2 * MARGIN_PX)}" height="{_num(tf.height - 2 * MARGIN_PX)}" '
                 f'style="image-rendering:pixelated" href="data:image/png;base64,{png}"/>')
    _overlay(tf, parts, arena, food_center)
    return _svg_close(parts)


def _png(raw: np.ndarray, width: int, height: int) -> bytes:
    """An 8-bit RGB PNG of the given scanlines in stored (uncompressed)
    deflate blocks, so its bytes follow from the pixels alone."""
    data = memoryview(raw).cast("B")
    stream = [b"\x78\x01"]  # zlib header: deflate, 32 KiB window, no dictionary
    for k in range(0, len(data), 65535):
        size = min(65535, len(data) - k)
        stream += struct.pack("<BHH", k + size == len(data), size, 0xFFFF ^ size), data[k:k + size]
    stream.append(struct.pack(">I", zlib.adler32(data)))
    doc = [b"\x89PNG\r\n\x1a\n"]
    for kind, body in ((b"IHDR", struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)),
                       (b"IDAT", b"".join(stream)), (b"IEND", b"")):
        crc = zlib.crc32(body, zlib.crc32(kind))
        doc += struct.pack(">I", len(body)), kind, body, struct.pack(">I", crc)
    return b"".join(doc)


def pick_instants(times, requested=None):
    """Times to draw: the requested instants, or PANELS evenly spaced ones."""
    times = list(times)
    if requested is None:
        lo, hi = times[0], times[-1]
        requested = [lo + (hi - lo) * k / (PANELS - 1) for k in range(PANELS)]
    picked = []
    for t in requested:
        idx = min(range(len(times)), key=lambda k: (abs(times[k] - t), k))
        picked.append(idx)
    return picked


def render_trajectories(samples, instants=None, arena: Arena | None = None,
                        food_center: Vec2 | None = None) -> str:
    """Panel-per-instant snapshots of school positions.

    `samples` is a trial's sampled states, as `run_trial` records them; each
    panel shows one sampled time with a dot per fish (class="particle").
    """
    if not samples:
        raise ValueError("no states to draw")
    if arena is None:
        # fall back to the tight bounding box of everything drawn
        allpos = np.concatenate([s.positions for s in samples])
        lo = allpos.min(axis=0) - 0.2
        hi = allpos.max(axis=0) + 0.2
        bounds = AxisRect(Vec2(lo[0], lo[1]), Vec2(hi[0], hi[1]))
    else:
        bounds = arena.bounds

    idxs = pick_instants([s.time for s in samples], instants)
    cols = 2 if len(idxs) > 1 else 1
    rows = -(-len(idxs) // cols)
    tf = WorldTransform(bounds, px_width=PANEL_PX + 2 * MARGIN_PX)
    total_w = cols * tf.width
    total_h = rows * tf.height
    frame = _rect_el(MARGIN_PX, MARGIN_PX, tf.width - 2 * MARGIN_PX,
                     tf.height - 2 * MARGIN_PX, "none", ' stroke="#000000" stroke-width="1"')

    parts = _svg_open(total_w, total_h)
    for slot, idx in enumerate(idxs):
        state = samples[idx]
        dx = (slot % cols) * tf.width
        dy = (slot // cols) * tf.height
        parts.append(f'<g transform="translate({_num(dx)},{_num(dy)})" class="panel">')
        parts.append(frame)
        _overlay(tf, parts, arena, food_center)
        for pos in state.positions:
            px, py = tf.to_px(pos[0], pos[1])
            parts.append(f'<circle cx="{_num(px)}" cy="{_num(py)}" r="3" '
                         f'fill="{PARTICLE_COLOR}" class="particle"/>')
        label_y = tf.height - MARGIN_PX / 3
        parts.append(f'<text x="{_num(tf.width / 2)}" y="{_num(label_y)}" '
                     f'font-family="sans-serif" font-size="12" text-anchor="middle">'
                     f't = {state.time:g}</text>')
        parts.append("</g>")
    return _svg_close(parts)


def render_success_curve(results) -> str | None:
    """Success probability against school size from a results table; None if it is empty."""
    order = np.argsort(results["N"], kind="stable")
    if not len(order):
        return None
    px_width, px_height = CURVE_PX
    m = MARGIN_PX + 8
    plot_w = px_width - 2 * m
    plot_h = px_height - 2 * m
    ns = results["N"][order].tolist()
    points = list(zip(ns, results["success_probability"][order].tolist()))
    n_lo, n_hi = min(ns), max(ns)
    span = max(n_hi - n_lo, 1)

    def to_px(n, prob):
        return (m + (n - n_lo) / span * plot_w, m + (1.0 - prob) * plot_h)

    parts = _svg_open(px_width, px_height)
    parts.append(f'<rect x="{_num(m)}" y="{_num(m)}" width="{_num(plot_w)}" '
                 f'height="{_num(plot_h)}" fill="none" stroke="#000000" stroke-width="1"/>')
    for frac in (0.25, 0.5, 0.75, 0.0, 1.0):  # 0 and 1 lie on the frame: no line
        gy = m + (1.0 - frac) * plot_h
        if 0.0 < frac < 1.0:
            parts.append(f'<line x1="{_num(m)}" y1="{_num(gy)}" x2="{_num(m + plot_w)}" '
                         f'y2="{_num(gy)}" stroke="#cccccc" stroke-width="0.5"/>')
        parts.append(f'<text x="{_num(m - 6)}" y="{_num(gy + 4)}" font-family="sans-serif" '
                     f'font-size="11" text-anchor="end">{frac:g}</text>')
    if len(points) > 1:
        coords = " ".join("{},{}".format(_num(px), _num(py))
                          for px, py in (to_px(n, prob) for n, prob in points))
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{PARTICLE_COLOR}" stroke-width="1.5" class="curve"/>')
    for n, prob in points:
        px, py = to_px(n, prob)
        parts.append(f'<circle cx="{_num(px)}" cy="{_num(py)}" r="3.5" '
                     f'fill="{PARTICLE_COLOR}" class="prob-point"/>')
        parts.append(f'<text x="{_num(px)}" y="{_num(m + plot_h + 16)}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'text-anchor="middle">{n}</text>')
    parts.append(f'<text x="{_num(px_width / 2)}" y="{_num(px_height - 6)}" '
                 f'font-family="sans-serif" font-size="12" text-anchor="middle">'
                 f'school size</text>')
    parts.append(f'<text x="14" y="{_num(px_height / 2)}" font-family="sans-serif" '
                 f'font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 14 {_num(px_height / 2)})">success probability</text>')
    return _svg_close(parts)


def write_svg(text: str, path, force=False):
    """Write the document to path and return the path, refusing an existing
    file unless force.  The bytes are those of ``Path.write_text``, but the
    text goes out in 64 KiB slices, so it is never encoded all at once."""
    path = Path(path)
    if path.exists() and not force:
        raise FileExistsError(f"{path} exists; pass force to overwrite")
    with open(path, "w") as fh:
        for start in range(0, len(text), 65536):
            fh.write(text[start:start + 65536])
    return path
