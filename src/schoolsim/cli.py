"""Command-line driver.

Commands::

    schoolsim solve-field --config F --out D [--spacing H]
    schoolsim run        --config F --out D [--seed S] [--traj-stride K]
    schoolsim sweep      --config F --out D --n-min A --n-max B --trials T --seed S [--jobs J]
                         [--per-trial] [--component-delta D]
    schoolsim plot       --input CSV --out D [--config F] [--instants LIST]

Every command accepts repeated ``--set path=value`` overrides and refuses to
overwrite existing outputs unless ``--force`` is given.  Each flag that names
a config value (``--spacing``, ``--seed``, ``--n-min``, ...) is another
spelling of ``--set`` on that value's key, applied after every ``--set``.
Exit status is 0 on success, 1 on a validation/usage error, 2 on a runtime
failure.  Each command writes a ``manifest.json`` beside its outputs
recording the resolved config, the other inputs and the environment that
produced them.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy

from . import __version__, tables
from .config import ConfigError, RunSpec, SweepSpec, config_to_dict, parse_config
from .experiment import (run_sweep, run_trial, read_results_csv,
                         read_trajectory_csv, write_trajectory_csv)
from .plots import render_heatmap, render_success_curve, render_trajectories, write_svg
from .scent import read_field_csv, solve_field, write_field_csv

DEFAULT_TRAJ_STRIDE = 10
PLOT_FILES = {"field": "heatmap.svg", "results": "probability.svg",
              "trajectory": "trajectories.svg"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The sweep's flags, by the key of the config's sweep section each one spells.
SWEEP_FLAGS = {"n_min": ("--n-min", "A"), "n_max": ("--n-max", "B"),
               "trials": ("--trials", "T"), "base_seed": ("--seed", "S"),
               "jobs": ("--jobs", "J")}


class _Parser(argparse.ArgumentParser):
    # raise instead of calling sys.exit so main() controls the exit status
    def error(self, message):
        raise ConfigError(message)


class _KeyFlag(argparse.Action):
    """A flag that spells ``--set DEST=VALUE``; _load_spec applies it after
    every ``--set``, so the flag wins."""

    def __call__(self, parser, namespace, value, option_string=None):
        namespace.key_flags = {**namespace.key_flags, self.dest: value}


def _add_key_flag(parser, flag, path, type, metavar):
    parser.add_argument(flag, type=type, metavar=metavar, dest=path, action=_KeyFlag,
                        default=argparse.SUPPRESS,
                        help=f"same as --set {path}={metavar}")


def _parse_sets(pairs):
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ConfigError(f"--set needs path=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"--set needs a non-empty path, got {item!r}")
        out.pop(key, None)  # a repeated path is applied in its last place
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw  # bare strings are allowed unquoted
    return out


def _prepare_out(args, filenames):
    """The output files, refused before any work if one exists without --force."""
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        raise ConfigError(f"{out} exists and is not a directory")
    targets = [out / name for name in filenames]
    for p in targets:
        if p.exists() and not args.force:
            raise ConfigError(f"{p} exists; pass --force to overwrite")
    return targets


def _load_spec(args) -> tuple[RunSpec, dict]:
    """The config resolved from the file, every --set, and then the flags
    that spell a --set, with the overrides in the order they were applied."""
    overrides = _parse_sets(args.sets)
    for path, value in args.key_flags.items():
        overrides.pop(path, None)
        overrides[path] = value
    return parse_config(args.config, overrides), overrides


def run_environment() -> dict:
    """What a run's bytes depend on beyond its inputs: CG rounds differently
    with another BLAS thread count, and the field and every trajectory
    inherit that rounding."""
    return {"thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
            "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "numpy": numpy.__version__}


def _write_manifest(args, path, overrides, spec, **flags):
    """Record one command beside its outputs: its resolved config, the flags
    that are not config keys, and the environment that produced it.  Each
    command calls this once its work is done and before it writes anything
    else, so a command that fails leaves no output directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"command": args.command, "version": __version__,
           "config_path": str(args.config) if args.config else None,
           "output_dir": str(path.parent), "overrides": overrides, "args": flags,
           "resolved_config": config_to_dict(spec) if spec else None,
           "environment": run_environment()}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_solve_field(args) -> int:
    spec, overrides = _load_spec(args)
    csv_path, man_path = _prepare_out(args, ["field.csv", "manifest.json"])

    t0 = time.perf_counter()
    fld = solve_field(spec.trial.arena, spec.trial.food, spacing=spec.spacing)
    elapsed = time.perf_counter() - t0
    _write_manifest(args, man_path, overrides, spec)
    write_field_csv(fld, csv_path)
    print(f"field: {fld.nx}x{fld.ny} cells, {fld.iterations} iterations, "
          f"residual {fld.residual:.3e} ({elapsed:.2f} s)")
    print(f"wrote {csv_path}")
    return 0


def cmd_run(args) -> int:
    spec, overrides = _load_spec(args)
    trial = spec.trial
    stride = args.traj_stride
    if stride < 1:
        raise ConfigError(f"--traj-stride must be at least 1, got {stride}")
    traj_path, outcome_path, man_path = _prepare_out(
        args, ["trajectory.csv", "outcome.json", "manifest.json"])

    result = run_trial(trial, spacing=spec.spacing, traj_stride=stride)
    _write_manifest(args, man_path, overrides, spec, traj_stride=stride)
    write_trajectory_csv(result.trajectory, traj_path)
    with open(outcome_path, "w") as fh:
        json.dump({
            "outcome": result.outcome.value,
            "final_center": {"x": result.final_center.x, "y": result.final_center.y},
            "components": result.final_components,
            "seed": trial.seed,
            "n_fish": trial.n_fish,
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"outcome: {result.outcome.value} "
          f"(center {result.final_center.x:.3f},{result.final_center.y:.3f}; "
          f"{result.final_components} component"
          f"{'s' if result.final_components != 1 else ''}; "
          f"{result.wall_clock:.2f} s)")
    print(f"wrote {traj_path}")
    return 0


def cmd_sweep(args) -> int:
    spec, overrides = _load_spec(args)
    sw = spec.sweep or SweepSpec()
    for key in ("n_min", "n_max", "trials", "base_seed"):
        if getattr(sw, key) is None:
            raise ConfigError(f"sweep needs {SWEEP_FLAGS[key][0]} "
                              f"(flag or config sweep section)")

    filenames = ["results.csv", "manifest.json"]
    if args.per_trial:
        filenames.insert(1, "trials.csv")
    targets = _prepare_out(args, filenames)
    results_path, man_path = targets[0], targets[-1]

    n_values = list(range(sw.n_min, sw.n_max + 1))
    t0 = time.perf_counter()
    fld = solve_field(spec.trial.arena, spec.trial.food, spacing=spec.spacing)
    results, trials = run_sweep(spec.trial, n_values, sw.trials, sw.base_seed,
                                parallelism=sw.jobs, field=fld)
    elapsed = time.perf_counter() - t0
    _write_manifest(args, man_path, overrides, spec, per_trial=args.per_trial)
    tables.write(results_path, "results", [results.values()])
    if args.per_trial:
        tables.write(targets[1], "trials", [trials.values()])
    for n, t, _, _, s, prob in zip(*results.values()):
        print(f"N={n:3d}: {s}/{t} success ({prob:.3f})")
    print(f"wrote {results_path} ({elapsed:.1f} s)")
    return 0


def _sniff_csv(path) -> str:
    try:
        kind = tables.kind_of(path)
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from e
    if kind not in PLOT_FILES:
        raise ConfigError(f"{path}: not a field, results or trajectory CSV")
    return kind


def cmd_plot(args) -> int:
    kind = _sniff_csv(args.input)
    if args.config is None and args.sets:
        raise ConfigError("plot --set needs --config")
    spec, overrides = _load_spec(args) if args.config else (None, {})
    arena = spec.trial.arena if spec else None
    food = spec.trial.food.center if spec else None
    instants = None
    if args.instants is not None:
        if kind != "trajectory":
            raise ConfigError("--instants needs a trajectory CSV")
        try:
            instants = [float(tok) for tok in args.instants.split(",") if tok.strip()]
        except ValueError:
            instants = []
        if not (instants and numpy.isfinite(instants).all()):
            raise ConfigError(f"--instants needs comma-separated finite times, "
                              f"got {args.instants!r}")

    svg_path, man_path = _prepare_out(args, [PLOT_FILES[kind], "manifest.json"])

    if kind == "field":
        text = render_heatmap(read_field_csv(args.input), arena=arena, food_center=food)
    elif kind == "results":
        text = render_success_curve(read_results_csv(args.input))
        if text is None:
            print(f"warning: {args.input} holds no sweep points, skipping plot",
                  file=sys.stderr)
            return 0
    else:
        text = render_trajectories(read_trajectory_csv(args.input), instants,
                                   arena=arena, food_center=food)

    _write_manifest(args, man_path, overrides, spec, input=str(args.input),
                    instants=instants)
    write_svg(text, svg_path, force=True)  # _prepare_out has checked the target
    print(f"wrote {svg_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="schoolsim",
                     description="Fish-school foraging simulator.")
    common = _Parser(add_help=False)
    common.add_argument("--out", required=True, metavar="D",
                        help="output directory (created if absent)")
    common.add_argument("--force", action="store_true",
                        help="overwrite existing output files")
    common.add_argument("--set", action="append", default=[], dest="sets",
                        metavar="PATH=VALUE",
                        help="dotted-path config override, e.g. params.vmax=1.2")
    common.set_defaults(key_flags={})
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("solve-field", parents=[common],
                       help="solve the scent field and export it as CSV")
    p.add_argument("--config", required=True, metavar="F")
    _add_key_flag(p, "--spacing", "spacing", float, "H")
    p.set_defaults(func=cmd_solve_field)

    p = sub.add_parser("run", parents=[common], help="run a single trial")
    p.add_argument("--config", required=True, metavar="F")
    _add_key_flag(p, "--seed", "seed", int, "S")
    p.add_argument("--traj-stride", type=int, default=DEFAULT_TRAJ_STRIDE, metavar="K",
                   help=f"steps between trajectory samples "
                        f"(default {DEFAULT_TRAJ_STRIDE})")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", parents=[common],
                       help="Monte Carlo sweep over school sizes")
    p.add_argument("--config", required=True, metavar="F")
    for key, (flag, metavar) in SWEEP_FLAGS.items():
        _add_key_flag(p, flag, f"sweep.{key}", int, metavar)
    p.add_argument("--per-trial", action="store_true",
                   help="also write one row per trial to trials.csv")
    _add_key_flag(p, "--component-delta", "classifier.component_delta", float, "D")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plot", parents=[common],
                       help="render an exported CSV as SVG")
    p.add_argument("--input", required=True, metavar="CSV")
    p.add_argument("--config", metavar="F",
                   help="config file, for the arena and the food in the chart")
    p.add_argument("--instants", metavar="LIST",
                   help="comma-separated times for trajectory panels")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 2
    except Exception as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
