"""Tests of the benchmark itself, at a tiny input size.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

# 20 steps per trial and a 0.05 grid (coarser than half the food radius,
# hence the solver's warning); every code path of a full run still runs.
SMOKE = workloads.Scale(overrides=(("horizon", 0.2), ("spacing", 0.05)),
                        setup_seconds=0.0)
SPEC = run.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

pytestmark = pytest.mark.filterwarnings("ignore:spacing .* exceeds half the food radius")


def smoke(name, trace, tmp_path, **kw):
    return workloads.run_workload(name, 7, 0.0, trace, tmp_path / "work", scale=SMOKE, **kw)


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert set(w["name"] for w in SPEC["workloads"]) == set(workloads.WORKLOADS)
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[group]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(name, tmp_path):
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        report = smoke(name, trace, tmp_path)
        line = run.result_line(report, SPEC)
        assert line["correct"], report.failures
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert {k: v["unit"] for k, v in line["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC[group]}
        assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
        if not trace:
            assert all(v["value"] > 0 for v in line["metrics"].values())
        json.dumps(line)


def test_every_per_layer_metric_is_measured_by_some_workload(tmp_path):
    measured = set()
    for name in workloads.WORKLOADS:
        measured |= set(smoke(name, True, tmp_path / name).metrics)
    assert measured == {m["name"] for m in SPEC["per_layer"]}


def test_spans_nest_and_self_times_are_nonnegative(tmp_path):
    report = smoke("long_trial", True, tmp_path)
    tracer = report.tracer
    spans = tracer.spans
    assert len(spans) > 100
    for sid, name, parent, start, end in spans:
        assert start <= end
        if parent is not None:
            assert parent < sid
            p = spans[parent]
            assert p[3] <= start and end <= p[4], (name, p[1])
    assert min(tracer.self_times()) >= 0.0

    tracer.write(tmp_path / "spans.jsonl")
    rows = [json.loads(ln) for ln in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert len(rows) == len(spans)
    assert {r["trace_id"] for r in rows} == {"long_trial-7"}
    assert sum(r["name"] == "dynamics.step" for r in rows) == 20


def test_tampered_digest_fails_the_output_check(tmp_path):
    digest = smoke("field_solve", False, tmp_path).digests["field.csv"]
    good = smoke("field_solve", False, tmp_path, expected={"field.csv": digest})
    assert good.failed == 0
    bad = smoke("field_solve", False, tmp_path, expected={"field.csv": "0" * 64})
    assert bad.failed >= 1
    assert any("field.csv" in f for f in bad.failures)
    assert not run.result_line(bad, SPEC)["correct"]


def test_a_body_that_raises_fails_all_its_operations(tmp_path, monkeypatch):
    def blow_up(*args, **kwargs):
        raise RuntimeError("trial blew up")

    monkeypatch.setattr(workloads, "run_trial", blow_up)
    report = smoke("long_trial", False, tmp_path)
    assert report.failed == workloads.LongTrial.body_ops
    assert report.attempted == report.failed + 1  # the solve check of the one set-up
    line = run.result_line(report, SPEC)
    assert not line["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "field_solve", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
