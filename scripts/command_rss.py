"""Print the max RSS of a fixed set of schoolsim CLI commands as one JSON.

    python3 scripts/command_rss.py > RSS.json

Run from any directory; schoolsim is imported from the ``src/`` next to
this script.  Each reading is one fresh child process that runs one command
under ``OPENBLAS_NUM_THREADS=1``, imports included, as the ``schoolsim``
entry point does.  ``os.wait4`` returns that one child's resource usage;
``RUSAGE_CHILDREN`` would give the maximum over every child waited for.
The JSON holds, per command, the median of three readings and the readings
themselves, in MB of 1024 KiB, the unit of perfbench's ``peak_rss_mb``.  The
first row is the import floor, ``schoolsim --help``: it imports every module
and does no work, so an import-time regression reads apart from a command's
own.  The commands are the shapes a memory claim can serve: ``solve-field``
on config3 and on config2 at spacing 0.01, ``run`` on config3, a serial
``sweep`` and ``plot`` of config2's heatmap.  To compare a change with its
parent, run it in each checkout on an idle machine.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
sys.path.insert(0, str(SRC))

from schoolsim import cli  # noqa: E402

READINGS = 3
CHILD = "import sys; from schoolsim import cli; sys.exit(cli.main(sys.argv[1:]))"

# (label, builtin, CLI arguments after --config and --out)
COMMANDS = (
    ("solve-field config3", "config3", ["solve-field"]),
    ("solve-field config2 spacing=0.01", "config2", ["solve-field", "--spacing", "0.01"]),
    ("run config3 seed=1234", "config3", ["run", "--seed", "1234"]),
    ("sweep config2 N=2-3 trials=4 jobs=1", "config2",
     ["sweep", "--n-min", "2", "--n-max", "3", "--trials", "4", "--seed", "1234",
      "--jobs", "1"]),
    # Draws the field.csv that solve-field config2 writes before the readings.
    ("plot field.csv of solve-field config2", "config2", ["plot", "--input", "{field}"]),
)


def max_rss_mb(argv: list) -> float:
    """Run schoolsim with argv in a fresh child process and return its max RSS."""
    proc = subprocess.Popen([sys.executable, "-c", CHILD, *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"schoolsim {' '.join(argv)} exited with {proc.returncode}")
    return round(usage.ru_maxrss / 1024.0, 2)


def record(doc: dict, label: str, argvs) -> None:
    """Add one row to doc: the max RSS of each argv in argvs, and their median."""
    readings = [max_rss_mb(argv) for argv in argvs]
    doc["max_rss_mb"][label] = {"median": statistics.median(readings), "readings": readings}
    print(label, file=sys.stderr, flush=True)


def main() -> int:
    doc = {"environment": cli.run_environment(), "max_rss_mb": {}}
    record(doc, "import floor: schoolsim --help", [["--help"]] * READINGS)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in {builtin for _, builtin, _ in COMMANDS}:
            (tmp / f"{name}.json").write_text(json.dumps({"builtin": name}))
        field = tmp / "field"
        max_rss_mb(["solve-field", "--config", str(tmp / "config2.json"), "--out", str(field)])
        for i, (label, builtin, argv) in enumerate(COMMANDS):
            argv = [a.format(field=field / "field.csv") for a in argv]
            record(doc, label, [[argv[0], "--config", str(tmp / f"{builtin}.json"), *argv[1:],
                                 "--out", str(tmp / f"out{i}-{k}")] for k in range(READINGS)])
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
