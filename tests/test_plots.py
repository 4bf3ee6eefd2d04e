"""SVG rendering: heatmap fidelity, panel counts, curve output, determinism."""

import hashlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from schoolsim.dynamics import SwarmState
from schoolsim.experiment import builtin_config, results_table
from schoolsim.geometry import Arena, AxisRect, Vec2
from schoolsim.plots import (HEAT_STRETCH, MARGIN_PX, RAMP, SOLID_COLOR, SOLID_RGB,
                             WorldTransform, pick_instants, ramp_rgb, render_heatmap,
                             render_success_curve, render_trajectories, write_svg)
from schoolsim.scent import ScentField, read_field_csv, solve_field, write_field_csv

from helpers import heatmap_image


# ----------------------------------------------------------------------- ramp

def test_ramp_anchor_sums_strictly_increase():
    sums = [sum(c) for c in RAMP]
    assert all(a < b for a, b in zip(sums, sums[1:]))


def test_ramp_is_monotone_and_clamped():
    sums = ramp_rgb(np.linspace(0, 1, 101)).astype(int).sum(axis=1)
    assert (np.diff(sums) >= 0).all()
    assert sums[0] < sums[-1]
    assert ramp_rgb(np.array([0.0, 0.25, 1.0])).tolist() == RAMP[[0, 1, 4]].tolist()
    assert ramp_rgb(np.array([-3.0, 7.0])).tolist() == RAMP[[0, 4]].tolist()


def test_ramp_rounds_as_python_round_does():
    ts, ramp = np.linspace(0, 1, 1025), RAMP.tolist()
    for t, rgb in zip(ts.tolist(), ramp_rgb(ts).tolist()):
        k = min(int(t * 4), 3)
        frac = t * 4 - k
        assert rgb == [round(a + (b - a) * frac) for a, b in zip(ramp[k], ramp[k + 1])]
    # A red channel of 52.5 rounds half to even.
    assert ramp_rgb(np.array(0.3125)).tolist() == [52, 98, 139]


# -------------------------------------------------------------------- heatmap

def cell_colours(field):
    """Each cell's colour, (nx, ny, 3), computed for the whole grid at once."""
    vmax = np.where(field.fluid, field.values, 0.0).max()
    rgb = ramp_rgb((field.values / vmax) ** HEAT_STRETCH)
    return np.where(field.fluid[..., None], rgb, SOLID_RGB)


def test_heatmap_brightest_block_sits_on_the_food(field_config1_left):
    f = field_config1_left
    (x, y, w, h), pixels = heatmap_image(render_heatmap(f))
    row, col = np.unravel_index(pixels.astype(int).sum(axis=2).argmax(), pixels.shape[:2])
    scale = (840 - 2 * MARGIN_PX) / (f.nx * f.spacing)
    cx = f.origin[0] + (x - MARGIN_PX + (col + 0.5) * w / f.nx) / scale
    cy = f.origin[1] + f.ny * f.spacing - (y - MARGIN_PX + (row + 0.5) * h / f.ny) / scale
    assert np.hypot(cx - 1.5, cy - 0.1) <= 0.1


def test_heatmap_is_one_image_of_a_pixel_per_cell(field_config1_left, field_config2):
    for f in (field_config1_left, field_config2):
        svg = render_heatmap(f)
        (x, y, w, h), pixels = heatmap_image(svg)
        assert pixels.shape == (f.ny, f.nx, 3)
        assert svg.count("<image") == 1
        assert svg.count("<rect") == 1  # the background
        scale = (840 - 2 * MARGIN_PX) / (f.nx * f.spacing)
        assert [x, y, w, h] == pytest.approx([MARGIN_PX, MARGIN_PX, 768,
                                              f.ny * f.spacing * scale], abs=0.005)
    # the baffle blanks 25x75 cells of config2's 200x200
    assert (pixels == SOLID_RGB).all(axis=2).sum() == 25 * 75


def test_heatmap_pixels_are_the_cell_colours(field_config1_left, field_config2, field_config3):
    for f in (field_config1_left, field_config2, field_config3):
        _, pixels = heatmap_image(render_heatmap(f))
        # the image's top row is the grid's last
        assert np.array_equal(pixels[::-1].transpose(1, 0, 2), cell_colours(f))


def test_heatmap_marks_obstacles_and_food(config2, field_config2):
    bare = render_heatmap(field_config2)
    assert 'class="obstacle"' not in bare and 'class="food"' not in bare
    svg = render_heatmap(field_config2, arena=config2.arena,
                         food_center=config2.food.center)
    assert svg.count('class="obstacle"') == 1
    assert svg.count('class="food"') == 1
    # The baffle is drawn over the bounding box of the solid pixels.
    rect = r'<rect x="([\d.]+)" y="([\d.]+)" width="([\d.]+)" height="([\d.]+)" '
    (baffle,) = re.findall(rect + f'fill="{SOLID_COLOR}" class="obstacle"/>', svg)
    (x, y, w, h), pixels = heatmap_image(svg)
    rows, cols = np.nonzero((pixels == SOLID_RGB).all(axis=2))
    px_w, px_h = w / pixels.shape[1], h / pixels.shape[0]
    lo = np.array([x + cols.min() * px_w, y + rows.min() * px_h])
    hi = np.array([x + (cols.max() + 1) * px_w, y + (rows.max() + 1) * px_h])
    assert [float(v) for v in baffle] == pytest.approx([*lo, *(hi - lo)], abs=0.01)


def test_heatmap_peak_memory(field_config1_left, field_config2):
    # The image is filled a grid column at a time, and the document holds
    # the PNG once, base64-encoded.  Drawn as up to 40,000 <rect>s, the
    # heatmap peaked at 7.35 MiB on config2 and 3.67 MiB on config1-left.
    for field, bound in ((field_config2, 1.0), (field_config1_left, 1.5)):
        tracemalloc.start()
        try:
            render_heatmap(field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20, f"render_heatmap peaked at {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("name, spacing", [("config2", 0.02), ("config3", 0.02),
                                           ("config2", 0.01)])
def test_heatmap_of_a_read_back_field_is_byte_identical(tmp_path, name, spacing):
    cfg = builtin_config(name)
    field = solve_field(cfg.arena, cfg.food, spacing=spacing)
    path = tmp_path / "field.csv"
    write_field_csv(field, path)
    overlay = {"arena": cfg.arena, "food_center": cfg.food.center}
    assert render_heatmap(read_field_csv(path), **overlay) == render_heatmap(field, **overlay)


def test_heatmap_is_deterministic(field_config2):
    assert render_heatmap(field_config2) == render_heatmap(field_config2)


HEATMAP_SHA256 = "8c57e9a3ef2ed27f5b0d4ae3e2813c66e0b7e4a04c0267ee541507b4f8a0ff1b"


def test_heatmap_bytes_are_pinned():
    # 401x301 cells make a PNG of several stored deflate blocks, and a solid
    # rectangle sits inside.  No field is solved, so the bytes do not follow
    # the BLAS thread count.
    nx, ny = 401, 301
    i, j = np.indices((nx, ny))
    fluid = ~((100 <= i) & (i < 251) & (50 <= j) & (j < 201))
    values = np.where(fluid, (7 * i + 13 * j) % 97 + 1, 0).astype(float)
    field = ScentField(spacing=0.01, origin=(0.0, 0.0), nx=nx, ny=ny, fluid=fluid,
                       values=values, grad=np.zeros((nx, ny, 2)), source=np.zeros((nx, ny)))
    svg = render_heatmap(field)
    _, pixels = heatmap_image(svg)
    assert np.array_equal(pixels[::-1].transpose(1, 0, 2), cell_colours(field))
    assert hashlib.sha256(svg.encode()).hexdigest() == HEATMAP_SHA256


# ------------------------------------------------------------------- instants

def test_pick_instants_even_spacing():
    times = [0.0, 0.5, 1.0, 1.5, 2.0]
    assert pick_instants(times) == [0, 1, 3, 4]


def test_pick_instants_nearest_requested():
    times = [0.0, 0.5, 1.0, 1.5, 2.0]
    assert pick_instants(times, requested=[0.74, -5.0, 99.0]) == [1, 0, 4]
    # exact ties resolve to the earlier sample
    assert pick_instants(times, requested=[0.75]) == [1]


# ----------------------------------------------------------------- trajectory

def make_samples(n_states=6, n_fish=3):
    rng = np.random.default_rng(2)
    out = []
    for k in range(n_states):
        pos = np.column_stack([rng.uniform(0.5, 3.5, n_fish),
                               rng.uniform(0.5, 3.5, n_fish)])
        out.append(SwarmState(0.2 * k, pos, np.zeros_like(pos)))
    return out


def test_trajectory_panels_and_glyph_counts():
    cfg = builtin_config("config2")
    svg = render_trajectories(make_samples(), arena=cfg.arena,
                              food_center=cfg.food.center)
    assert svg.count('class="panel"') == 4
    assert svg.count('class="particle"') == 4 * 3
    assert svg.count('class="food"') == 4
    assert svg.count('class="obstacle"') == 4  # baffle drawn in each panel
    assert svg.count("<text") == 4  # one time label per panel


def test_trajectory_explicit_instants():
    svg = render_trajectories(make_samples(), instants=[0.0, 1.0])
    assert svg.count('class="panel"') == 2
    assert "t = 0</text>" in svg and "t = 1</text>" in svg


def test_trajectory_without_arena_uses_bounding_box():
    svg = render_trajectories(make_samples())
    assert svg.count('class="panel"') == 4
    assert svg.count('class="obstacle"') == 0


def test_trajectory_requires_samples():
    with pytest.raises(ValueError):
        render_trajectories([])


def test_trajectory_is_deterministic():
    a = render_trajectories(make_samples())
    b = render_trajectories(make_samples())
    assert a == b


# -------------------------------------------------------------- success curve

def test_success_curve_points_and_line():
    table = results_table([(n, 10, 10 - s, 0, s) for n, s in
                           ((2, 3), (5, 9), (10, 7), (20, 4))])
    svg = render_success_curve(table)
    assert svg.count('class="prob-point"') == 4
    assert svg.count('class="curve"') == 1
    assert svg.count("<line") == 3  # gridlines at 0.25 / 0.5 / 0.75
    assert "school size" in svg and "success probability" in svg


def test_success_curve_single_point_has_no_line():
    svg = render_success_curve(results_table([(5, 4, 1, 0, 3)]))
    assert svg.count('class="prob-point"') == 1
    assert svg.count('class="curve"') == 0


def test_success_curve_empty_returns_none():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert render_success_curve(results_table(np.empty((0, 5)))) is None


# ---------------------------------------------------------------------- files

def test_write_svg_refuses_overwrite(tmp_path):
    target = tmp_path / "x.svg"
    write_svg("<svg/>", target)
    assert target.read_text() == "<svg/>"
    with pytest.raises(FileExistsError):
        write_svg("<svg>2</svg>", target)
    write_svg("<svg>2</svg>", target, force=True)
    assert target.read_text() == "<svg>2</svg>"


def test_write_svg_writes_in_slices(tmp_path):
    # A 3.3 MB document spans many slices.  Encoding it whole, as
    # Path.write_text does, would trace one buffer the size of the document.
    text = "<svg>\n" + "<rect/>\n" * 410_000 + "</svg>\n"
    target = tmp_path / "heatmap.svg"
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write_svg(text, target)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert target.read_bytes() == text.encode()
    assert peak < 0.1 * len(text), f"write_svg peaked at {peak / len(text):.2f}x the document"


def test_world_transform_flips_y():
    tf = WorldTransform(AxisRect(Vec2(0, 0), Vec2(4, 4)), px_width=400)
    x0, y0 = tf.to_px(0, 0)
    x1, y1 = tf.to_px(4, 4)
    assert x0 < x1 and y0 > y1  # world up is pixel up
    assert x0 == MARGIN_PX and y1 == MARGIN_PX
