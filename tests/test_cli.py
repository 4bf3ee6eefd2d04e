"""End-to-end command-line flows run in-process through main()."""

import json

import numpy
import pytest
import scipy

from schoolsim.cli import main

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
    assert man["args"]["spacing"] == 0.1
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
    assert (env["numpy"], env["scipy"]) == (numpy.__version__, scipy.__version__)


def test_outputs_are_protected_from_overwrite(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "field"
    args = ["solve-field", "--config", str(cfg), "--out", str(out),
            "--spacing", "0.1"]
    assert main(args) == 0
    assert main(args) == 1  # refuses silently clobbering
    assert main(args + ["--force"]) == 0


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
    assert man["args"] == {"seed": 5, "spacing": 0.05, "traj_stride": 4}


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
    assert man["args"]["n_min"] == 2 and man["args"]["n_max"] == 3
    assert man["args"]["trials"] == 2 and man["args"]["seed"] == 9
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
    assert "--jobs" in capsys.readouterr().err
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


def test_component_delta_flag_is_the_classifier_key_and_wins_over_set(tmp_path):
    cfg = write_cfg(tmp_path)
    runs = {}
    for name, extra in (("flag", ["--set", "classifier.component_delta=0.05",
                                  "--set", 'classifier={"kind": "min-x-threshold", '
                                           '"right_threshold": 2.5}',
                                  "--component-delta", "10"]),
                        ("set", ["--set", "classifier.component_delta=10"])):
        out = tmp_path / name
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--n-min", "4", "--n-max", "4", "--trials", "2",
                     "--seed", "9", "--per-trial", *extra]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["resolved_config"]["classifier"]["component_delta"] == 10
        assert "component_delta" not in man["args"]
        runs[name] = (out / "trials.csv").read_text()
    # a 10-unit contact distance joins every fish of the 4x4 tank
    assert [row.split(",")[-1] for row in runs["flag"].splitlines()[1:]] == ["1", "1"]
    assert runs["flag"] == runs["set"]


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


def test_sweep_rejects_bad_jobs_in_config(tmp_path, capsys):
    payload = dict(QUICK)
    payload["sweep"] = {"n_min": 2, "n_max": 2, "trials": 1, "base_seed": 5, "jobs": 0}
    cfg = write_cfg(tmp_path, payload)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1
    assert "--jobs must be positive, got 0" in capsys.readouterr().err


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


def test_plot_rejects_unknown_csv(tmp_path):
    weird = tmp_path / "weird.csv"
    weird.write_text("a,b,c\n1,2,3\n")
    assert main(["plot", "--input", str(weird),
                 "--out", str(tmp_path / "p")]) == 1


def test_plot_rejects_bad_instants(tmp_path, sweep_outputs):
    _, _, run_dir, _ = sweep_outputs
    assert main(["plot", "--input", str(run_dir / "trajectory.csv"),
                 "--out", str(tmp_path / "p"), "--instants", "now"]) == 1


def test_plot_empty_results_warns_but_succeeds(tmp_path, capsys):
    empty = tmp_path / "results.csv"
    empty.write_text("N,trials,failure_count,presuccess_count,"
                     "success_count,success_probability\n")
    out = tmp_path / "p"
    assert main(["plot", "--input", str(empty), "--out", str(out)]) == 0
    assert not (out / "probability.svg").exists()
    assert "no sweep points" in capsys.readouterr().err


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


def test_runtime_blowup_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "boom"),
                 "--set", "params.attraction=1e300", "--set", "params.r=1e6",
                 "--set", "horizon=0.05"])
    assert code == 2
    assert "runtime failure" in capsys.readouterr().err
