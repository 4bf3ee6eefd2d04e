"""CSV outputs: written bytes against per-row reference formatters, readers
that accept rows in any order, and the errors a malformed file raises."""

import csv
import random
import warnings

import numpy as np
import pytest

from schoolsim import tables
from schoolsim.cli import main
from schoolsim.dynamics import SwarmState
from schoolsim.experiment import (read_results_csv, read_trajectory_csv, results_table,
                                  write_trajectory_csv)
from schoolsim.geometry import Arena, AxisRect, Vec2
from schoolsim.metrics import OutcomeState
from schoolsim.scent import FoodSpec, read_field_csv, solve_field, write_field_csv

# Floats whose repr() takes every form: exponents both ways, -0.0, a
# subnormal, and sums that are not the shortest decimal of their terms.
AWKWARD = [0.1 + 0.2, -0.0, 1e-05, 1e16, 5e-324, -1.7976931348623157e308,
           2.5, 1 / 3, -123456.789e-12]


# ------------------------------------------------------ reference formatters
# The per-row loops that wrote each kind before the columns were written as
# arrays.  The written tables must have their bytes exactly.

def reference_field_csv(field, path):
    xs, ys = field.cell_centers()
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["cell_i", "cell_j", "x_center", "y_center", "fluid_flag",
                      "U", "dUdx", "dUdy"])
        for i in range(field.nx):
            for j in range(field.ny):
                out.writerow([
                    i, j, float(xs[i]), float(ys[j]), int(field.fluid[i, j]),
                    float(field.values[i, j]),
                    float(field.grad[i, j, 0]), float(field.grad[i, j, 1]),
                ])


def reference_results_csv(r, path):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["N", "trials", "failure_count", "presuccess_count",
                      "success_count", "success_probability"])
        for k in range(len(r["N"])):
            n, trials, failure, presuccess, success = (
                int(r[name][k]) for name in ("N", "trials", "failure_count",
                                             "presuccess_count", "success_count"))
            out.writerow([n, trials, failure, presuccess, success, repr(success / trials)])


def reference_trials_csv(t, path):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["N", "trial_index", "seed", "outcome",
                      "final_center_x", "final_center_y", "components"])
        for k in range(len(t["N"])):
            out.writerow([int(t["N"][k]), int(t["trial_index"][k]), int(t["seed"][k]),
                          t["outcome"][k].value, repr(float(t["final_center_x"][k])),
                          repr(float(t["final_center_y"][k])), int(t["components"][k])])


def reference_trajectory_csv(samples, path):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["t", "particle_id", "x", "y", "vx", "vy"])
        for state in samples:
            t = float(state.time)
            for i in range(state.n_fish):
                out.writerow([t, i, *state.positions[i].tolist(),
                              *state.velocities[i].tolist()])


# ------------------------------------------------------------------- inputs

def solve_small(spacing):
    """A 1 x 0.6 tank with a wall-hung block."""
    arena = Arena(AxisRect(Vec2(0.0, 0.0), Vec2(1.0, 0.6)),
                  (AxisRect(Vec2(0.4, 0.2), Vec2(0.6, 0.6)),))
    return solve_field(arena, FoodSpec(center=Vec2(0.8, 0.1), radius=0.1), spacing)


@pytest.fixture(scope="module", params=[0.05, 0.025])
def small_field(request):
    return solve_small(request.param)


def sweep_tables():
    """A results and a trials table in the form run_sweep returns, by kind."""
    results = results_table([(2, 3, 1, 0, 2), (7, 3, 3, 0, 0), (11, 7, 1, 2, 4)])
    seeds = [0, 1, 2**63 - 1, 2**63, 2**63 + 12345, 2**64 - 1]
    trials = {"N": np.array([2, 2, 7, 7, 11, 11]), "trial_index": np.arange(6),
              "seed": np.array(seeds, dtype=np.uint64),
              "outcome": np.array(list(OutcomeState) * 2, dtype=object),
              "final_center_x": np.array(AWKWARD[:6]),
              "final_center_y": np.array(AWKWARD[::-1][:6]),
              "components": np.array([1, 2, 3, 1, 1, 4])}
    return {"results": results, "trials": trials}


def samples():
    rng = np.random.default_rng(3)
    states = []
    for k in range(5):
        pos = rng.standard_normal((4, 2)) * 10.0 ** rng.integers(-6, 6, (4, 2))
        vel = rng.choice(AWKWARD, (4, 2))
        states.append(SwarmState(k * 0.1, pos, vel))
    return states


# ----------------------------------------------------------------- bytes

def test_field_csv_bytes_match_reference(tmp_path, small_field):
    assert not small_field.fluid.all()
    write_field_csv(small_field, tmp_path / "got.csv")
    reference_field_csv(small_field, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


REFERENCES = {"results": reference_results_csv, "trials": reference_trials_csv}


@pytest.mark.parametrize("kind", REFERENCES)
def test_sweep_table_bytes_match_reference(tmp_path, kind):
    # as `schoolsim sweep` writes each table of run_sweep
    table = sweep_tables()[kind]
    tables.write(tmp_path / "got.csv", kind, [table.values()])
    REFERENCES[kind](table, tmp_path / "want.csv")
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    if kind == "trials":
        assert f",{2**64 - 1},".encode() in got and f",{2**63},".encode() in got


def test_trajectory_csv_bytes_match_reference(tmp_path):
    write_trajectory_csv(samples(), tmp_path / "got.csv")
    reference_trajectory_csv(samples(), tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_empty_results_and_trials_write_only_the_header(tmp_path):
    empty = {"results": results_table(np.empty((0, 5))),
             "trials": {name: [] for name in tables.HEADERS["trials"]}}
    for kind, reference in REFERENCES.items():
        tables.write(tmp_path / "got.csv", kind, [empty[kind].values()])
        reference(empty[kind], tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# ------------------------------------------------------------- row order

def shuffle_rows(path, seed=0):
    lines = path.read_text().splitlines(keepends=True)
    body = lines[1:]
    random.Random(seed).shuffle(body)
    path.write_text("".join(lines[:1] + body))


def test_field_csv_reads_back_in_any_row_order(tmp_path, small_field):
    path = tmp_path / "field.csv"
    write_field_csv(small_field, path)
    want = read_field_csv(path)
    shuffle_rows(path)
    got = read_field_csv(path)
    assert (got.nx, got.ny, got.spacing, got.origin) == (want.nx, want.ny, want.spacing,
                                                         want.origin)
    for name in ("fluid", "values", "grad"):
        assert getattr(got, name).tobytes() == getattr(small_field, name).tobytes()
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_trajectory_csv_reads_back_in_any_row_order(tmp_path):
    path = tmp_path / "traj.csv"
    states = samples()
    write_trajectory_csv(states, path)
    shuffle_rows(path)
    back = read_trajectory_csv(path)
    assert [s.time for s in back] == [s.time for s in states]
    for got, want in zip(back, states):
        assert got.positions.view(np.int64).tolist() == want.positions.view(np.int64).tolist()
        assert got.velocities.view(np.int64).tolist() == want.velocities.view(np.int64).tolist()


# ----------------------------------------------------------------- errors

@pytest.fixture
def one_of_each(tmp_path):
    """A file of every kind, by kind."""
    files = {kind: tmp_path / f"{kind}.csv" for kind in ("field", "results", "trials",
                                                         "trajectory")}
    write_field_csv(solve_small(0.05), files["field"])
    for kind, table in sweep_tables().items():
        tables.write(files[kind], kind, [table.values()])
    write_trajectory_csv(samples(), files["trajectory"])
    return files


READERS = {"field": read_field_csv, "results": read_results_csv,
           "trajectory": read_trajectory_csv}


@pytest.mark.parametrize("kind", READERS)
def test_readers_reject_other_kinds_and_empty_files(tmp_path, one_of_each, kind):
    for other, path in one_of_each.items():
        if other != kind:
            with pytest.raises(ValueError, match=f"not a {kind} CSV"):
                READERS[kind](path)
    (tmp_path / "empty.csv").write_text("")
    with pytest.raises(ValueError):
        READERS[kind](tmp_path / "empty.csv")


@pytest.mark.parametrize("kind", READERS)
def test_readers_reject_a_row_with_a_missing_cell(one_of_each, kind):
    path = one_of_each[kind]
    lines = path.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="without"):
        READERS[kind](path)


def test_field_csv_rejects_missing_rows_and_no_rows(one_of_each):
    path = one_of_each["field"]
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:5] + lines[6:]))
    with pytest.raises(ValueError, match="missing cells"):
        read_field_csv(path)
    # a repeated row in place of a missing one keeps the row count
    path.write_text("".join(lines[:5] + lines[4:5] + lines[6:]))
    with pytest.raises(ValueError, match="missing cells"):
        read_field_csv(path)
    path.write_text(lines[0])
    with pytest.raises(ValueError, match="no cells"):
        read_field_csv(path)


def test_readers_reject_non_integer_indices_and_counts(tmp_path, one_of_each):
    # Each line replaces the leading cells of the first row.  The results rows
    # hold a fractional N, zero trials, counts that sum past trials, a
    # negative count in a row that sums to trials, and counts whose int64 sum
    # wraps round to trials.  The field and results rows
    # with nan, inf or 1e300 must be refused without numpy's cast warning.  The
    # trajectory rows replace the first fish of frame t=0: by a fractional id,
    # by a repeat of fish 1, and by a fish 4 of four.
    for kind, line in (("field", "0.5,0,"), ("field", "-1,0,"), ("field", "nan,0,"),
                       ("field", "0,inf,"), ("field", "1e300,0,"), ("results", "2.5,"),
                       ("results", "2,0,0,0,0,"), ("results", "2,5,1,0,9,"),
                       ("results", "2,5,-1,0,6,"), ("results", "2,nan,"),
                       ("results", "inf,"), ("results", "2,5,0,0,1e300,"),
                       ("results", "2,1,9223372036854774784,9223372036854774784,2049,"),
                       ("trajectory", "0.0,2.5,"), ("trajectory", "0.0,1,"),
                       ("trajectory", "0.0,4,")):
        path = one_of_each[kind]
        lines = path.read_text().splitlines()
        lines[1] = line + lines[1].split(",", line.count(","))[-1]
        path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings(), pytest.raises(ValueError, match="integers"):
            warnings.simplefilter("error")
            READERS[kind](path)
    out = tmp_path / "plot"
    assert main(["plot", "--input", str(one_of_each["trajectory"]), "--out", str(out)]) == 1
    assert not out.exists() or not any(out.iterdir())


def edit_cell(path, row, column, text):
    """Replace one cell of a CSV, its data rows counted from 0."""
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[lines[0].split(",").index(column)] = text
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def assert_plot_fails_cleanly(tmp_path, path):
    # With --config the arena and the food are drawn too, which alone drew
    # a trajectory CSV's nan positions as cx="nan".
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"builtin": "config2"}')
    for extra in ([], ["--config", str(cfg)]):
        out = tmp_path / "plot"
        assert main(["plot", "--input", str(path), "--out", str(out), *extra]) == 1
        assert not out.exists()


@pytest.mark.parametrize("kind, column, text", [
    ("field", "U", "nan"), ("field", "dUdx", "inf"), ("trajectory", "x", "nan"),
    ("trajectory", "vx", "-inf"), ("results", "success_probability", "nan"),
])
def test_readers_and_plot_reject_non_finite_cells(tmp_path, one_of_each, kind, column, text):
    # A nan U once drew every heatmap block at the ramp's bottom colour.
    path = one_of_each[kind]
    edit_cell(path, 1, column, text)
    with warnings.catch_warnings(), pytest.raises(ValueError, match="finite"):
        warnings.simplefilter("error")
        READERS[kind](path)
    assert_plot_fails_cleanly(tmp_path, path)


def test_field_csv_rejects_centres_off_one_uniform_grid(tmp_path, one_of_each):
    # The spacing was xs[1] - xs[0], the last row of i = 1 winning, so a
    # moved centre there read back as spacing 4.95.
    path = one_of_each["field"]
    ny = len(read_field_csv(path).cell_centers()[1])
    clean = path.read_text()
    for row, column, text in ((2 * ny - 1, "x_center", "5.0"), (ny + 3, "y_center", "0.175001")):
        edit_cell(path, row, column, text)
        with pytest.raises(ValueError, match="uniform grid"):
            read_field_csv(path)
        assert_plot_fails_cleanly(tmp_path, path)
        path.write_text(clean)


def test_plot_refuses_a_trials_csv(tmp_path, one_of_each):
    out = tmp_path / "plot"
    assert main(["plot", "--input", str(one_of_each["trials"]), "--out", str(out)]) == 1
    assert not out.exists() or not any(out.iterdir())
