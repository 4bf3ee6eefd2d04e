"""Write the SHA-256 of a fixed set of schoolsim CLI outputs to one JSON file.

    OPENBLAS_NUM_THREADS=1 python3 scripts/output_digests.py OUT.json

Run from any directory; schoolsim is imported from the ``src/`` next to
this script.  Each CLI command runs in-process into a temporary directory,
and every file it writes except ``manifest.json`` (which holds paths) is
hashed.  The CSVs of the cases in PLOTTED are then drawn by ``plot``, and
its SVG is hashed too.  The JSON also records the environment that
``manifest.json`` records (the BLAS thread variables, the CPU count and the
numpy version), because the CG solve, and with it every field
and trajectory, rounds differently with another thread count.  Two
checkouts wrote the same bytes when their JSON files are identical, so
comparing a change with its parent is two runs in the same environment and
a ``diff``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from schoolsim import cli  # noqa: E402

BUILTINS = ("config1-left", "config1-right", "config2", "config3")

# (label, builtin, CLI arguments after --config and --out)
CASES = (
    [(f"solve-field {name}", name, ["solve-field"]) for name in BUILTINS]
    + [("solve-field config2 spacing=0.01", "config2",
        ["solve-field", "--spacing", "0.01"]),
       # 700x400 cells: the largest heatmap, an image of 280,000 pixels.
       ("solve-field config1-left spacing=0.01", "config1-left",
        ["solve-field", "--spacing", "0.01"])]
    + [(f"run {name} seed=1234 horizon=30", name,
        ["run", "--seed", "1234", "--set", "horizon=30"])
       for name in ("config2", "config3")]
    + [("sweep config2 N=2-4 trials=6", "config2",
        ["sweep", "--n-min", "2", "--n-max", "4", "--trials", "6",
         "--seed", "1234", "--per-trial"]),
       ("sweep config3 N=2-3 trials=4 horizon=40", "config3",
        ["sweep", "--n-min", "2", "--n-max", "3", "--trials", "4",
         "--seed", "1234", "--per-trial", "--set", "horizon=40"]),
       # More trials than one shard holds, run in a pool: the shards of each
       # N are joined in order.
       ("sweep config2 N=2-3 trials=70 jobs=2 horizon=5", "config2",
        ["sweep", "--n-min", "2", "--n-max", "3", "--trials", "70",
         "--seed", "1234", "--jobs", "2", "--per-trial", "--set", "horizon=5"]),
       # Every sweep value from --set alone: the config path of the flags.
       ("sweep config2 N=2-3 trials=4 from --set", "config2",
        ["sweep", "--per-trial", "--set", "sweep.n_min=2", "--set", "sweep.n_max=3",
         "--set", "sweep.trials=4", "--set", "sweep.base_seed=1234"])]
)
# The cases whose output CSV `plot` draws, by label: the file it reads, and
# whether `plot` also reads the case's config, for the arena and the food.
PLOTTED = {"solve-field config3": ("field.csv", False),
           "solve-field config2": ("field.csv", True),
           "solve-field config1-left spacing=0.01": ("field.csv", True),
           "run config3 seed=1234 horizon=30": ("trajectory.csv", True),
           "sweep config2 N=2-4 trials=6": ("results.csv", False)}


def run_cli(argv: list, out: Path) -> dict:
    """Run one CLI command into out and hash each output file but the manifest."""
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main([*argv, "--out", str(out)])
    if status != 0:
        raise SystemExit(f"schoolsim {' '.join(argv)} exited with {status}")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def digest_case(tmp: Path, builtin: str, argv: list) -> dict:
    """Run one CLI command on a builtin config into tmp/out and hash its outputs."""
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps({"builtin": builtin}))
    return run_cli([argv[0], "--config", str(cfg), *argv[1:]], tmp / "out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", metavar="OUT.json", help="where to write the digests")
    args = parser.parse_args(argv)
    doc = {"environment": cli.run_environment(), "outputs": {}}
    for label, builtin, cli_args in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            doc["outputs"][label] = digest_case(tmp, builtin, cli_args)
            if label in PLOTTED:
                name, with_config = PLOTTED[label]
                argv = ["plot", "--input", str(tmp / "out" / name)]
                if with_config:
                    argv += ["--config", str(tmp / "config.json")]
                doc["outputs"][f"plot {name} of {label}"] = run_cli(argv, tmp / "plot")
        print(label, flush=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
