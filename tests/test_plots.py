"""SVG rendering: heatmap fidelity, panel counts, curve output, determinism."""

import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from schoolsim.dynamics import SwarmState
from schoolsim.experiment import builtin_config, results_table
from schoolsim.geometry import Arena, AxisRect, Vec2
from schoolsim.plots import (HEAT_STRETCH, MARGIN_PX, MAX_HEATMAP_CELLS, RAMP,
                             SOLID_COLOR, WorldTransform, pick_instants,
                             ramp_color, render_heatmap, render_success_curve,
                             render_trajectories, write_svg)
from schoolsim.scent import ScentField, read_field_csv, solve_field, write_field_csv

HM_RE = re.compile(r'<rect x="([-\d.]+)" y="([-\d.]+)" width="([\d.]+)" '
                   r'height="([\d.]+)" fill="#([0-9a-f]{6})" class="hm"/>')


def rgb_sum(hexcode: str) -> int:
    return sum(int(hexcode[k:k + 2], 16) for k in (0, 2, 4))


# ----------------------------------------------------------------------- ramp

def test_ramp_anchor_sums_strictly_increase():
    sums = [sum(c) for c in RAMP]
    assert all(a < b for a, b in zip(sums, sums[1:]))


def test_ramp_is_monotone_and_clamped():
    ts = np.linspace(0, 1, 101)
    sums = [rgb_sum(ramp_color(t)[1:]) for t in ts]
    assert all(a <= b for a, b in zip(sums, sums[1:]))
    assert sums[0] < sums[-1]
    assert ramp_color(-3) == ramp_color(0.0)
    assert ramp_color(7) == ramp_color(1.0)


# -------------------------------------------------------------------- heatmap

def test_heatmap_brightest_block_sits_on_the_food(field_config1_left):
    f = field_config1_left
    svg = render_heatmap(f)
    blocks = HM_RE.findall(svg)
    assert blocks, "no heatmap cells emitted"
    scale = (840 - 2 * MARGIN_PX) / (f.nx * f.spacing)
    ox, oy = f.origin
    top = oy + f.ny * f.spacing
    best = max(blocks, key=lambda b: rgb_sum(b[4]))
    x, y, w, h = (float(v) for v in best[:4])
    cx = ox + (x - MARGIN_PX + w / 2) / scale
    cy = top - (y - MARGIN_PX + h / 2) / scale
    assert np.hypot(cx - 1.5, cy - 0.1) <= 0.1


def test_heatmap_block_budget(field_config1_left, field_config2):
    # 350x200 cells coarsen 2x into 175x100 blocks
    svg = render_heatmap(field_config1_left)
    assert len(HM_RE.findall(svg)) == 175 * 100
    assert svg.count('class="solid"') == 0
    # 200x200 fits the budget exactly; the baffle blanks 25x75 cells
    svg = render_heatmap(field_config2)
    assert len(HM_RE.findall(svg)) + svg.count('class="solid"') == MAX_HEATMAP_CELLS
    assert svg.count('class="solid"') == 25 * 75


def test_heatmap_peak_memory(field_config2):
    # Built one row of blocks at a time, the heatmap holds its row strings
    # and the joined document at its peak (about 2.3x the document), not a
    # string per block and a copy of the document besides (4x).
    tracemalloc.start()
    try:
        svg = render_heatmap(field_config2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(svg), f"render_heatmap peaked at {peak / len(svg):.2f}x its output"


def reference_block_fills(field):
    """Block colours from the per-block mean of the fluid cells, block by block."""
    nx, ny = field.nx, field.ny
    factor = 1
    while (-(-nx // factor)) * (-(-ny // factor)) > MAX_HEATMAP_CELLS:
        factor += 1
    vals = np.where(field.fluid, field.values, 0.0)
    vmax = float(vals.max())
    fills = []
    for i0 in range(0, nx, factor):
        for j0 in range(0, ny, factor):
            flu = field.fluid[i0:i0 + factor, j0:j0 + factor]
            if flu.any():
                mean = float(vals[i0:i0 + factor, j0:j0 + factor][flu].mean())
                fills.append(ramp_color((mean / vmax) ** HEAT_STRETCH))
            else:
                fills.append(SOLID_COLOR)
    return factor, fills


def test_heatmap_block_colours_equal_per_block_means(field_config1_left, field_config2):
    for field, want_factor in ((field_config2, 1), (field_config1_left, 2)):
        factor, fills = reference_block_fills(field)
        assert factor == want_factor
        svg = render_heatmap(field)
        assert re.findall(r'fill="(#[0-9a-f]{6})" class="(?:hm|solid)"', svg) == fills


def test_heatmap_marks_obstacles_and_food(config2, field_config2):
    bare = render_heatmap(field_config2)
    assert 'class="obstacle"' not in bare and 'class="food"' not in bare
    svg = render_heatmap(field_config2, arena=config2.arena,
                         food_center=config2.food.center)
    assert svg.count('class="obstacle"') == 1
    assert svg.count('class="food"') == 1
    # At factor 1 the baffle is drawn over the bounding box of its solid blocks.
    rect = r'<rect x="([\d.]+)" y="([\d.]+)" width="([\d.]+)" height="([\d.]+)" '
    (baffle,) = re.findall(rect + f'fill="{SOLID_COLOR}" class="obstacle"/>', svg)
    solid = np.array(re.findall(rect + r'fill="[^"]+" class="solid"/>', svg), dtype=float)
    lo = solid[:, :2].min(axis=0)
    hi = (solid[:, :2] + solid[:, 2:]).max(axis=0)
    assert [float(v) for v in baffle] == pytest.approx([*lo, *(hi - lo)], abs=1e-9)


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


PARTIAL_BLOCKS_SHA256 = "85e5b26f4befd7b27787f3185acbe9ec16b65a19b8d5eae91e5713f82b81e76c"


def test_heatmap_bytes_with_partial_blocks_are_pinned():
    # 401x401 cells coarsen 3x into 134x134 blocks, whose last column and
    # row are 2 cells wide, and the solid rectangle cuts blocks on all four
    # sides.  The values are integers and no field is solved, so the bytes
    # follow neither the BLAS thread count nor a transcendental function.
    n = 401
    i, j = np.indices((n, n))
    fluid = ~((100 <= i) & (i < 251) & (50 <= j) & (j < 301))
    values = np.where(fluid, (7 * i + 13 * j) % 97 + 1, 0).astype(float)
    field = ScentField(spacing=0.01, origin=(0.0, 0.0), nx=n, ny=n, fluid=fluid,
                       values=values, grad=np.zeros((n, n, 2)), source=np.zeros((n, n)))
    svg = render_heatmap(field)
    assert svg.count('class="hm"') + svg.count('class="solid"') == 134 * 134
    assert hashlib.sha256(svg.encode()).hexdigest() == PARTIAL_BLOCKS_SHA256


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


def test_success_curve_empty_warns_and_returns_none():
    with pytest.warns(UserWarning):
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


def test_write_svg_writes_in_slices(tmp_path, field_config2):
    # config2's heatmap spans many slices.  Encoding it whole, as
    # Path.write_text does, would trace one buffer the size of the document.
    text = render_heatmap(field_config2)
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
