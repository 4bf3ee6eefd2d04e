"""End-to-end command-line flows run in-process through main()."""

import csv
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy
import pytest

from schoolsim import cli
from schoolsim.cli import main
from schoolsim.config import parse_config, parse_config_dict

QUICK = {
    "builtin": "config2",
    "spacing": 0.05,
    "overrides": {"horizon": 0.2, "n_fish": 4},
}


def write_cfg(tmp_path, payload=None, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload if payload is not None else QUICK))
    return path


# ---------------------------------------------------------------- solve-field

def test_solve_field_writes_csv_and_manifest(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "field"
    assert main(["solve-field", "--config", str(cfg), "--out", str(out),
                 "--spacing", "0.1"]) == 0
    assert (out / "field.csv").exists()
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "solve-field"
    assert man["resolved_config"]["spacing"] == 0.1
    assert man["config_path"] == str(cfg)
    assert man["resolved_config"]["food"]["center"]["x"] == 3.5
    assert "version" in man
    head = (out / "field.csv").read_text().splitlines()[0]
    assert head == "cell_i,cell_j,x_center,y_center,fluid_flag,U,dUdx,dUdy"
    assert "field: 40x40 cells" in capsys.readouterr().out


def test_manifest_records_blas_threads_and_versions(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "field"
    assert main(["solve-field", "--config", str(write_cfg(tmp_path)),
                 "--out", str(out), "--spacing", "0.1"]) == 0
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert env["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["thread_env"]["MKL_NUM_THREADS"] is None
    assert "OMP_NUM_THREADS" in env["thread_env"]
    assert env["cpus"] >= 1
    assert env["numpy"] == numpy.__version__
    assert "scipy" not in env  # no output depends on scipy


def test_manifest_records_the_session_thread_variables(tmp_path, thread_env):
    # No monkeypatch: the manifest must see the environment the session
    # started with, whatever collecting other test directories imported.
    out = tmp_path / "field"
    assert main(["solve-field", "--config", str(write_cfg(tmp_path)),
                 "--out", str(out), "--spacing", "0.1"]) == 0
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert env["thread_env"] == thread_env


def test_outputs_are_protected_from_overwrite(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "field"
    args = ["solve-field", "--config", str(cfg), "--out", str(out),
            "--spacing", "0.1"]
    assert main(args) == 0
    assert main(args) == 1  # refuses silently clobbering
    assert main(args + ["--force"]) == 0
    # an --out that is a file is refused before the field is solved
    afile = tmp_path / "afile"
    afile.write_text("kept")
    assert main(args[:4] + [str(afile)] + args[5:]) == 1
    assert afile.read_text() == "kept"


# ------------------------------------------------------------------------ run

def test_run_writes_outcome_and_trajectory(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--seed", "5", "--traj-stride", "4"]) == 0
    outcome = json.loads((out / "outcome.json").read_text())
    assert outcome["seed"] == 5
    assert outcome["n_fish"] == 4
    assert outcome["outcome"] in ("Failure", "PreSuccess", "Success")
    assert outcome["components"] >= 1
    assert set(outcome["final_center"]) == {"x", "y"}
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,particle_id,x,y,vx,vy"
    # 20 steps sampled every 4th, plus the start: 6 frames of 4 fish
    assert len(traj) == 1 + 6 * 4
    man = json.loads((out / "manifest.json").read_text())
    assert man["args"] == {"traj_stride": 4}
    assert (man["resolved_config"]["seed"], man["resolved_config"]["spacing"]) == (5, 0.05)


def test_run_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, dict(QUICK, seed=77))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert json.loads((out_a / "outcome.json").read_text())["seed"] == 77
    assert main(["run", "--config", str(cfg), "--out", str(out_b),
                 "--seed", "78"]) == 0
    assert json.loads((out_b / "outcome.json").read_text())["seed"] == 78


def test_run_rejects_bad_stride(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x"),
                 "--traj-stride", "0"]) == 1


def test_set_overrides_beat_file_overrides(tmp_path):
    cfg = write_cfg(tmp_path)  # file sets n_fish 4
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--set", "n_fish=6"]) == 0
    assert json.loads((out / "outcome.json").read_text())["n_fish"] == 6
    man = json.loads((out / "manifest.json").read_text())
    assert man["overrides"] == {"n_fish": 6}
    assert man["resolved_config"]["n_fish"] == 6


# ---------------------------------------------------------------------- sweep

def test_sweep_writes_results(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--n-min", "2", "--n-max", "3", "--trials", "2",
                 "--seed", "9", "--per-trial"]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "N,trials,failure_count,presuccess_count,success_count,success_probability"
    assert len(lines) == 3 and lines[1].startswith("2,2,") and lines[2].startswith("3,2,")
    trials = (out / "trials.csv").read_text().splitlines()
    assert len(trials) == 1 + 4
    man = json.loads((out / "manifest.json").read_text())
    sweep = man["resolved_config"]["sweep"]
    assert sweep["n_min"] == 2 and sweep["n_max"] == 3
    assert sweep["trials"] == 2 and sweep["base_seed"] == 9
    printed = capsys.readouterr().out
    assert "N=  2:" in printed and "N=  3:" in printed


def test_sweep_falls_back_to_config_sweep_section(tmp_path):
    payload = dict(QUICK)
    payload["sweep"] = {"n_min": 2, "n_max": 2, "trials": 1, "base_seed": 5}
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "results.csv").exists()


def test_sweep_requires_a_range(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "s")]) == 1


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_bad_jobs_flag(tmp_path, capsys, jobs):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--n-min", "2", "--n-max", "2", "--trials", "1",
                 "--seed", "9", "--jobs", jobs]) == 1
    assert f"SweepSpec.jobs must be positive, got {jobs}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("delta", ["nan", "0", "-1"])
def test_sweep_rejects_bad_component_delta(tmp_path, capsys, delta):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--n-min", "2", "--n-max", "2", "--trials", "1",
                 "--seed", "9", f"--component-delta={delta}"]) == 1
    assert "Classifier.component_delta must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


# Each flag that names a config value: the command and its non-config flags,
# the flag, its --set path, the flag's value and another value.  The config
# file gives each path a third value.
KEY_FLAGS = {
    "solve-field-spacing": (["solve-field"], "--spacing", "spacing", "0.1", "0.2"),
    "run-seed": (["run"], "--seed", "seed", "5", "6"),
    "sweep-n-min": (["sweep", "--per-trial"], "--n-min", "sweep.n_min", "3", "4"),
    "sweep-n-max": (["sweep", "--per-trial"], "--n-max", "sweep.n_max", "3", "2"),
    "sweep-trials": (["sweep", "--per-trial"], "--trials", "sweep.trials", "1", "3"),
    "sweep-seed": (["sweep", "--per-trial"], "--seed", "sweep.base_seed", "7", "8"),
    "sweep-jobs": (["sweep", "--per-trial"], "--jobs", "sweep.jobs", "2", "3"),
    "sweep-component-delta": (["sweep", "--per-trial", "--set",
                               'classifier={"kind": "min-x-threshold", "right_threshold": 2.5}'],
                              "--component-delta", "classifier.component_delta", "10", "0.05"),
}
KEY_FLAG_FILE = dict(QUICK, seed=3, overrides={**QUICK["overrides"],
                                               "classifier.component_delta": 0.2},
                     sweep={"n_min": 2, "n_max": 4, "trials": 2, "base_seed": 9, "jobs": 1})


@pytest.mark.parametrize("argv, flag, path, value, other", KEY_FLAGS.values(),
                         ids=KEY_FLAGS.keys())
def test_component_delta_flag_is_the_classifier_key_and_wins_over_set(
        tmp_path, capsys, argv, flag, path, value, other):
    cfg = write_cfg(tmp_path, KEY_FLAG_FILE)
    runs = {}
    for name, extra in (("flag", [flag, value]),
                        ("set", ["--set", f"{path}={value}"]),
                        ("wins", ["--set", f"{path}={other}", flag, value,
                                  "--set", f"{path}={other}"])):
        out = tmp_path / name
        assert main([argv[0], "--config", str(cfg), "--out", str(out),
                     *argv[1:], *extra]) == 0
        man = json.loads((out / "manifest.json").read_text())
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        runs[name] = (man["resolved_config"], man["overrides"], files)
    assert runs["flag"] == runs["set"]
    assert runs["wins"][0] == runs["flag"][0] and runs["wins"][2] == runs["flag"][2]
    resolved = runs["flag"][0]
    for key in path.split("."):
        resolved = resolved[key]
    assert resolved == json.loads(value)
    assert path.split(".")[-1] not in man["args"]
    if flag == "--component-delta":
        # a 10-unit contact distance joins every fish of the 4x4 tank
        trials = runs["flag"][2]["trials.csv"].decode().splitlines()[1:]
        assert [row.split(",")[-1] for row in trials] == ["1"] * 6
    capsys.readouterr()
    assert main([argv[0], "--help"]) == 0
    helptext = " ".join(capsys.readouterr().out.split())
    assert re.search(rf"{flag} (\w) same as --set {re.escape(path)}=\1\b", helptext)


@pytest.mark.parametrize("payload", [
    '{"builtin": "config2", "classifier": {"kind": "min-x-threshold", "right_threshold": NaN}}',
    '{"builtin": "config2", "overrides": [1]}',
])
def test_bad_config_exits_1_and_writes_nothing(tmp_path, capsys, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(payload)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--n-min", "2", "--n-max", "2", "--trials", "1", "--seed", "9"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}")
    assert not out.exists()


def test_run_refuses_an_infinite_exponent_before_any_work(tmp_path, capsys):
    # json writes and reads Infinity; the run once failed at t=0 with exit 2.
    cfg = write_cfg(tmp_path, {**QUICK, "params": {"q": float("inf")}})
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert "ModelParams.q must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_bad_jobs_in_config(tmp_path, capsys):
    payload = dict(QUICK)
    payload["sweep"] = {"n_min": 2, "n_max": 2, "trials": 1, "base_seed": 5, "jobs": 0}
    cfg = write_cfg(tmp_path, payload)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1
    assert "sweep: SweepSpec.jobs must be positive, got 0" in capsys.readouterr().err


def test_sweep_results_identical_across_jobs(tmp_path):
    cfg = write_cfg(tmp_path)
    outs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--n-min", "2", "--n-max", "4", "--trials", "2",
                     "--seed", "31", "--jobs", jobs, "--per-trial"]) == 0
        outs[jobs] = ((out / "results.csv").read_bytes(),
                      (out / "trials.csv").read_bytes())
    assert outs["1"] == outs["2"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_counts_equal_the_per_trial_outcomes(tmp_path, jobs):
    # A band around the start region gives all three outcomes.
    cfg = write_cfg(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--n-min", "2", "--n-max", "3", "--trials", "12", "--seed", "5",
                 "--jobs", jobs, "--per-trial",
                 "--set", "classifier.kind=band-three-state",
                 "--set", "classifier.left_threshold=1.4",
                 "--set", "classifier.right_threshold=1.6"]) == 0
    with open(out / "trials.csv", newline="") as fh:
        tally = Counter((int(row["N"]), row["outcome"]) for row in csv.DictReader(fh))
    with open(out / "results.csv", newline="") as fh:
        results = list(csv.DictReader(fh))
    assert [int(row["N"]) for row in results] == [2, 3]
    for row in results:
        n = int(row["N"])
        counts = [int(row[f"{name}_count"]) for name in ("failure", "presuccess", "success")]
        assert counts == [tally[n, name] for name in ("Failure", "PreSuccess", "Success")]
        assert sum(counts) == int(row["trials"]) == 12
    assert sum(tally.values()) == 24
    assert {name for _, name in tally} == {"Failure", "PreSuccess", "Success"}


# ----------------------------------------------------------------------- plot

@pytest.fixture()
def sweep_outputs(tmp_path):
    cfg = write_cfg(tmp_path)
    field_dir = tmp_path / "f"
    run_dir = tmp_path / "r"
    sweep_dir = tmp_path / "s"
    assert main(["solve-field", "--config", str(cfg), "--out", str(field_dir),
                 "--spacing", "0.1"]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(run_dir)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(sweep_dir),
                 "--n-min", "2", "--n-max", "3", "--trials", "2",
                 "--seed", "9"]) == 0
    return cfg, field_dir, run_dir, sweep_dir


def test_plot_dispatches_on_csv_kind(tmp_path, sweep_outputs):
    cfg, field_dir, run_dir, sweep_dir = sweep_outputs
    out = tmp_path / "plots"
    assert main(["plot", "--input", str(field_dir / "field.csv"),
                 "--out", str(out / "hm")]) == 0
    assert (out / "hm" / "heatmap.svg").read_text().count('class="hm"') > 0

    assert main(["plot", "--input", str(sweep_dir / "results.csv"),
                 "--out", str(out / "pr")]) == 0
    svg = (out / "pr" / "probability.svg").read_text()
    assert svg.count('class="prob-point"') == 2

    assert main(["plot", "--input", str(run_dir / "trajectory.csv"),
                 "--out", str(out / "tr"), "--config", str(cfg),
                 "--instants", "0,0.1,0.2"]) == 0
    svg = (out / "tr" / "trajectories.svg").read_text()
    assert svg.count('class="panel"') == 3
    assert svg.count('class="particle"') == 3 * 4
    assert svg.count('class="obstacle"') == 3  # baffle outline from --config


def test_plot_set_without_config_is_a_usage_error(tmp_path, capsys, sweep_outputs):
    _, _, run_dir, _ = sweep_outputs
    out = tmp_path / "p"
    assert main(["plot", "--input", str(run_dir / "trajectory.csv"), "--out", str(out),
                 "--set", "params.vmax=nonsense"]) == 1
    assert "--set needs --config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, text, argv", [
    ("cfg.json", '{"builtin": "config2"}', ["solve-field", "--spacing", "0.03", "--config"]),
    ("trajectory.csv", "t,particle_id,x,y,vx,vy\n0.0,0,1.0,1.0,0.0,0.0\n"
                       "0.0,0,2.0,1.0,0.0,0.0\n", ["plot", "--input"]),
    ("results.csv", "N,trials,failure_count,presuccess_count,success_count,"
                    "success_probability\n2,0,0,0,0,0.0\n", ["plot", "--input"]),
], ids=["solve-field-grid", "plot-repeated-id", "plot-zero-trials"])
def test_a_command_that_fails_on_its_input_creates_no_out_dir(tmp_path, name, text, argv):
    path = tmp_path / name
    path.write_text(text)
    out = tmp_path / "out"
    assert main([*argv, str(path), "--out", str(out)]) == 1
    assert not out.exists()


def test_plot_rejects_unknown_csv(tmp_path):
    weird = tmp_path / "weird.csv"
    weird.write_text("a,b,c\n1,2,3\n")
    assert main(["plot", "--input", str(weird),
                 "--out", str(tmp_path / "p")]) == 1


RESULTS_HEADER = (b"N,trials,failure_count,presuccess_count,success_count,"
                  b"success_probability\n")


@pytest.mark.parametrize("data", [
    b"x" * 200_000 + b"\n",
    RESULTS_HEADER + b"2,1,0,0,1," + b"1" * 200_000 + b"\n",
    b"\x80\n",
    RESULTS_HEADER + b"2,1,0,0,1,\xff\n",
], ids=["long-header", "long-cell", "header-not-utf-8", "cell-not-utf-8"])
def test_plot_of_an_unreadable_csv_exits_1_naming_it(tmp_path, capsys, data):
    # A field over csv's 131,072-character limit, or a byte that is not
    # UTF-8, is bad input, not a runtime failure.
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    out = tmp_path / "out"
    assert main(["plot", "--input", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not out.exists()


def test_plot_rejects_bad_instants(tmp_path, sweep_outputs):
    _, field_dir, run_dir, _ = sweep_outputs
    out = tmp_path / "p"
    for csv, instants in [("trajectory.csv", "now"), ("trajectory.csv", "nan"),
                          ("trajectory.csv", "inf"), ("trajectory.csv", "1,nan"),
                          ("trajectory.csv", "nan,inf,-inf"), ("field.csv", "0")]:
        csv_dir = run_dir if csv == "trajectory.csv" else field_dir
        assert main(["plot", "--input", str(csv_dir / csv), "--out", str(out),
                     "--instants", instants]) == 1, instants
        assert not out.exists()


def test_plot_config_overlays_the_heatmap(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["solve-field", "--config", str(cfg), "--out", str(tmp_path / "f")]) == 0
    field_csv = str(tmp_path / "f" / "field.csv")
    assert main(["plot", "--input", field_csv, "--out", str(tmp_path / "bare")]) == 0
    assert main(["plot", "--input", field_csv, "--config", str(cfg),
                 "--out", str(tmp_path / "overlaid")]) == 0
    bare = (tmp_path / "bare" / "heatmap.svg").read_text()
    overlaid = (tmp_path / "overlaid" / "heatmap.svg").read_text()
    assert (bare.count('class="obstacle"'), bare.count('class="food"')) == (0, 0)
    assert (overlaid.count('class="obstacle"'), overlaid.count('class="food"')) == (1, 1)


def test_plot_empty_results_warns_but_succeeds(tmp_path, capsys):
    empty = tmp_path / "results.csv"
    empty.write_text("N,trials,failure_count,presuccess_count,"
                     "success_count,success_probability\n")
    out = tmp_path / "p"
    assert main(["plot", "--input", str(empty), "--out", str(out)]) == 0
    assert not (out / "probability.svg").exists()
    assert "no sweep points" in capsys.readouterr().err


# ------------------------------------------------------------------ manifests

SWEEP_SECTION = dict(QUICK, sweep={"n_min": 2, "n_max": 3, "trials": 2, "base_seed": 9})


@pytest.mark.parametrize("payload, argv, sets", [
    (QUICK, ["solve-field", "--spacing", "0.1"], {"spacing": 0.1}),
    (QUICK, ["run", "--seed", "5", "--traj-stride", "4", "--set", "n_fish=3"],
     {"n_fish": 3, "seed": 5}),
    (QUICK, ["sweep", "--n-min", "2", "--n-max", "3", "--trials", "2", "--seed", "9"],
     {"sweep.n_min": 2, "sweep.n_max": 3, "sweep.trials": 2, "sweep.base_seed": 9}),
    (SWEEP_SECTION, ["sweep", "--per-trial", "--set", "sweep.trials=1", "--jobs", "2"],
     {"sweep.trials": 1, "sweep.jobs": 2}),
    (QUICK, ["plot", "--set", "n_fish=2"], {"n_fish": 2}),
], ids=["solve-field", "run", "sweep-flags", "sweep-per-trial", "plot"])
def test_manifest_replays_its_run(tmp_path, monkeypatch, payload, argv, sets):
    cfg = write_cfg(tmp_path, payload)
    if argv[0] == "plot":
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
        argv = [*argv, "--input", str(tmp_path / "r" / "trajectory.csv")]
    ran = []  # every RunSpec the command parsed

    def recording_parse(*args):
        ran.append(parse_config(*args))
        return ran[-1]

    monkeypatch.setattr(cli, "parse_config", recording_parse)
    out = tmp_path / "out"
    assert main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert ran == [parse_config(cfg, sets)]
    assert parse_config_dict(man["resolved_config"]) == ran[0]
    assert ("sweep" in man["resolved_config"]) == (argv[0] == "sweep")


# ----------------------------------------------------------------- exit codes

def test_usage_errors_exit_1(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["frobnicate"]) == 1  # unknown command
    assert main(["run", "--config", str(cfg)]) == 1  # missing --out
    assert main(["run", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 1
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o2"),
                 "--set", "bogus"]) == 1  # --set without '='


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "solve-field" in capsys.readouterr().out


def fresh_modules():
    """The modules a fresh interpreter holds once it has imported schoolsim
    and the modules of every command."""
    probe = ("import sys, schoolsim, schoolsim.cli, schoolsim.experiment, schoolsim.plots; "
             "print(*sorted(sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.split()


def test_no_command_loads_scipy():
    # A fresh interpreter, since the scent and metrics tests import scipy's
    # sparse matrices, solvers and graph routines as oracles.
    assert [m for m in fresh_modules() if m.split(".")[0] == "scipy"] == []


def test_no_command_loads_the_process_pool():
    # Only a sweep with more than one job needs the pool, and it imports it
    # itself; at import time its modules would cost every process about 2 MB.
    assert [m for m in fresh_modules() if m == "concurrent.futures.process"
            or m.split(".")[0] == "multiprocessing"] == []


def test_no_command_loads_the_random_generator():
    # Only stepping draws noise, and run_trials imports numpy.random with its
    # first default_rng; at import time it would also load secrets, hashlib
    # and libcrypto into commands that never step.
    assert [m for m in fresh_modules() if m.split(".")[0] in ("secrets", "hashlib", "_hashlib")
            or m.startswith("numpy.random")] == []


def test_runtime_blowup_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "boom"),
                 "--set", "params.attraction=1e300", "--set", "params.r=1e6",
                 "--set", "horizon=0.05"])
    assert code == 2
    assert "runtime failure" in capsys.readouterr().err
