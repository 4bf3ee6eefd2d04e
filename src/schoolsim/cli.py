"""Command-line driver.

Commands::

    schoolsim solve-field --config F --out D [--spacing H]
    schoolsim run        --config F --out D [--seed S] [--traj-stride K]
    schoolsim sweep      --config F --out D --n-min A --n-max B --trials T --seed S [--jobs J]
    schoolsim plot       --input CSV --out D [--config F] [--instants LIST]

Every command accepts repeated ``--set path=value`` overrides and refuses to
overwrite existing outputs unless ``--force`` is given.  Exit status is 0 on
success, 1 on a validation/usage error, 2 on a runtime failure.  Each command
writes a ``manifest.json`` beside its outputs recording the exact inputs
and the environment that produced them.
"""

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

from . import __version__, tables
from .config import ConfigError, RunSpec, config_to_dict, parse_config
from .experiment import (run_sweep, run_trial, read_results_csv,
                         read_trajectory_csv, write_results_csv,
                         write_trials_csv, write_trajectory_csv)
from .plots import render_heatmap, render_success_curve, render_trajectories
from .scent import read_field_csv, solve_field, write_field_csv

DEFAULT_TRAJ_STRIDE = 10
PLOT_FILES = {"field": "heatmap.svg", "results": "probability.svg",
              "trajectory": "trajectories.svg"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class RunManifest:
    """Record of one CLI invocation, written beside its outputs."""

    command: str
    config_path: str | None
    output_dir: str
    overrides: dict = field(default_factory=dict)
    args: dict = field(default_factory=dict)
    resolved_config: dict | None = None

    def write(self, path):
        doc = dataclasses.asdict(self)
        doc["version"] = __version__
        # CG rounds differently with another BLAS thread count, and the
        # field and every trajectory inherit that rounding.
        doc["environment"] = {
            "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
            "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


class _Parser(argparse.ArgumentParser):
    # raise instead of calling sys.exit so main() controls the exit status
    def error(self, message):
        raise ConfigError(message)


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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    targets = [out / name for name in filenames]
    for p in targets:
        if p.exists() and not args.force:
            raise ConfigError(f"{p} exists; pass --force to overwrite")
    return out, targets


def _load_spec(args) -> tuple[RunSpec, dict]:
    overrides = _parse_sets(args.sets)
    return parse_config(args.config, overrides), overrides


def cmd_solve_field(args) -> int:
    spec, overrides = _load_spec(args)
    spacing = args.spacing if args.spacing is not None else spec.spacing
    out, (csv_path, man_path) = _prepare_out(args, ["field.csv", "manifest.json"])

    t0 = time.perf_counter()
    fld = solve_field(spec.trial.arena, spec.trial.food, spacing=spacing)
    elapsed = time.perf_counter() - t0
    write_field_csv(fld, csv_path)
    RunManifest("solve-field", str(args.config), str(out), overrides,
                args={"spacing": spacing},
                resolved_config=config_to_dict(spec.trial, spacing)).write(man_path)
    print(f"field: {fld.nx}x{fld.ny} cells, {fld.iterations} iterations, "
          f"residual {fld.residual:.3e} ({elapsed:.2f} s)")
    print(f"wrote {csv_path}")
    return 0


def cmd_run(args) -> int:
    spec, overrides = _load_spec(args)
    trial = spec.trial
    if args.seed is not None:
        trial = dataclasses.replace(trial, seed=args.seed)
    stride = args.traj_stride if args.traj_stride is not None else DEFAULT_TRAJ_STRIDE
    if stride < 1:
        raise ConfigError(f"--traj-stride must be at least 1, got {stride}")
    out, (traj_path, outcome_path, man_path) = _prepare_out(
        args, ["trajectory.csv", "outcome.json", "manifest.json"])

    result = run_trial(trial, spacing=spec.spacing, traj_stride=stride)
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
    RunManifest("run", str(args.config), str(out), overrides,
                args={"seed": trial.seed, "traj_stride": stride,
                      "spacing": spec.spacing},
                resolved_config=config_to_dict(trial, spec.spacing)).write(man_path)
    print(f"outcome: {result.outcome.value} "
          f"(center {result.final_center.x:.3f},{result.final_center.y:.3f}; "
          f"{result.final_components} component"
          f"{'s' if result.final_components != 1 else ''}; "
          f"{result.wall_clock:.2f} s)")
    print(f"wrote {traj_path}")
    return 0


def cmd_sweep(args) -> int:
    if args.component_delta is not None:  # the last --set, so it wins
        args.sets.append(f"classifier.component_delta={json.dumps(args.component_delta)}")
    spec, overrides = _load_spec(args)
    sw = spec.sweep

    def pick(flag_value, spec_value, name):
        if flag_value is not None:
            return flag_value
        if spec_value is not None:
            return spec_value
        raise ConfigError(f"sweep needs {name} (flag or config sweep section)")

    n_min = pick(args.n_min, sw.n_min if sw else None, "--n-min")
    n_max = pick(args.n_max, sw.n_max if sw else None, "--n-max")
    trials = pick(args.trials, sw.trials if sw else None, "--trials")
    seed = pick(args.seed, sw.base_seed if sw else None, "--seed")
    jobs = args.jobs if args.jobs is not None else (sw.jobs if sw and sw.jobs is not None else 1)
    if n_min < 2 or n_max < n_min:
        raise ConfigError(f"bad school-size range [{n_min}, {n_max}]")
    if trials < 1:
        raise ConfigError(f"--trials must be positive, got {trials}")
    if jobs < 1:
        raise ConfigError(f"--jobs must be positive, got {jobs}")

    filenames = ["results.csv", "manifest.json"]
    if args.per_trial:
        filenames.insert(1, "trials.csv")
    out, targets = _prepare_out(args, filenames)
    results_path, man_path = targets[0], targets[-1]

    n_values = list(range(n_min, n_max + 1))
    t0 = time.perf_counter()
    result = run_sweep(spec.trial, n_values, trials, seed, parallelism=jobs,
                       spacing=spec.spacing)
    elapsed = time.perf_counter() - t0
    write_results_csv(result, results_path)
    if args.per_trial:
        write_trials_csv(result, targets[1])
    RunManifest("sweep", str(args.config), str(out), overrides,
                args={"n_min": n_min, "n_max": n_max, "trials": trials,
                      "seed": seed, "jobs": jobs, "per_trial": bool(args.per_trial),
                      "spacing": spec.spacing},
                resolved_config=config_to_dict(spec.trial, spec.spacing)).write(man_path)
    for p in result.points:
        print(f"N={p.n_fish:3d}: {p.success_count}/{p.trials} success "
              f"({p.success_probability:.3f})")
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
    overrides = _parse_sets(args.sets)
    spec = None
    if args.config is not None:
        spec, overrides = _load_spec(args)
    instants = None
    if args.instants is not None:
        try:
            instants = [float(tok) for tok in args.instants.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"--instants needs comma-separated numbers, "
                              f"got {args.instants!r}") from None
        if not instants:
            raise ConfigError("--instants needs at least one time")

    out, (svg_path, man_path) = _prepare_out(args, [PLOT_FILES[kind], "manifest.json"])

    if kind == "field":
        text = render_heatmap(read_field_csv(args.input))
    elif kind == "results":
        text = render_success_curve(read_results_csv(args.input).points)
        if text is None:
            print(f"warning: {args.input} holds no sweep points, skipping plot",
                  file=sys.stderr)
            return 0
    else:
        samples = read_trajectory_csv(args.input)
        arena = spec.trial.arena if spec else None
        food = spec.trial.food.center if spec else None
        text = render_trajectories(samples, instants, arena=arena, food_center=food)

    svg_path.write_text(text)
    RunManifest("plot", str(args.config) if args.config else None, str(out),
                overrides,
                args={"input": str(args.input), "instants": instants},
                resolved_config=(config_to_dict(spec.trial, spec.spacing)
                                 if spec else None)).write(man_path)
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
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("solve-field", parents=[common],
                       help="solve the scent field and export it as CSV")
    p.add_argument("--config", required=True, metavar="F")
    p.add_argument("--spacing", type=float, metavar="H")
    p.set_defaults(func=cmd_solve_field)

    p = sub.add_parser("run", parents=[common], help="run a single trial")
    p.add_argument("--config", required=True, metavar="F")
    p.add_argument("--seed", type=int, metavar="S")
    p.add_argument("--traj-stride", type=int, metavar="K",
                   help=f"steps between trajectory samples "
                        f"(default {DEFAULT_TRAJ_STRIDE})")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", parents=[common],
                       help="Monte Carlo sweep over school sizes")
    p.add_argument("--config", required=True, metavar="F")
    p.add_argument("--n-min", type=int, metavar="A")
    p.add_argument("--n-max", type=int, metavar="B")
    p.add_argument("--trials", type=int, metavar="T")
    p.add_argument("--seed", type=int, metavar="S")
    p.add_argument("--jobs", type=int, metavar="J")
    p.add_argument("--per-trial", action="store_true",
                   help="also write one row per trial to trials.csv")
    p.add_argument("--component-delta", type=float, metavar="D",
                   help="same as --set classifier.component_delta=D")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plot", parents=[common],
                       help="render an exported CSV as SVG")
    p.add_argument("--input", required=True, metavar="CSV")
    p.add_argument("--config", metavar="F",
                   help="config file, for arena outlines in trajectory plots")
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
