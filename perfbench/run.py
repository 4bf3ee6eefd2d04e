"""schoolsim benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload long_trial --seed 1234 --seconds 45 --trace 0

Run from the root of a checkout; schoolsim is imported from its ``src/``.
With ``--trace 0`` the last line of standard output holds the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  The
lines before it print every metric by name with its unit, the environment
and any failed check.  The full record (metrics, checks, environment, and
for a traced run the spans) goes to ``perfbench/out/``.  See
perfbench/README.md for the workloads and metrics.
"""

import os

# Pin the BLAS/OpenMP thread pools before numpy is first imported, and in any
# child process (it inherits the environment): OpenBLAS would otherwise start
# one thread per CPU, and a run's speed would depend on how busy the other
# CPUs are.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_program():
    """Put the checkout's src/ first on the path and check schoolsim comes from it."""
    if not (SRC / "schoolsim" / "__init__.py").is_file():
        raise ImportError(f"no schoolsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import schoolsim
    if Path(schoolsim.__file__).resolve().parent != (SRC / "schoolsim").resolve():
        raise ImportError(f"schoolsim was imported from {schoolsim.__file__}, not {SRC}")
    return schoolsim


def openblas_runtime() -> dict:
    """Version string and thread count reported by the loaded OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.split()[-1] and ".so" in ln.split()[-1]})
    except OSError:
        return {}
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.argtypes = get_threads.argtypes = []
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                out[Path(path).name] = {"config": get_config().decode(),
                                        "threads": get_threads()}
                break
    return out


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"rev": None, "dirty": None, "note": "not a git checkout"}
    git = ["git", "-C", str(ROOT)]
    try:
        rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True, timeout=30).stdout.strip()
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                text=True, check=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        return {"rev": None, "dirty": None, "note": f"git failed: {exc}"}
    return {"rev": rev, "dirty": bool(status.strip())}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": openblas_runtime(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git": git_state(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def result_line(report, spec) -> dict:
    """The driver's JSON object: exactly the metrics BENCHMARK.json names for
    this mode, with their units.  A per-layer metric of a layer the workload
    never calls reads 0; a run that failed before measuring reads 0 throughout."""
    wanted = spec["per_layer"] if report.trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    unknown = set(report.metrics) - names
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    if report.metrics and not report.trace and names - set(report.metrics):
        raise KeyError(f"end-to-end metrics not measured: {sorted(names - set(report.metrics))}")
    return {
        "correct": report.failed == 0 and bool(report.metrics),
        "attempted": max(report.attempted, 1),
        "failed": report.failed if report.attempted else 1,
        "metrics": {m["name"]: {"value": report.metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }


def summary(report, line, stepping: bool) -> list:
    """Human-readable lines: every metric with its unit, then failed_frac."""
    lines = [f"# {report.workload} seed={report.seed} trace={int(report.trace)}"]
    for name, m in line["metrics"].items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
    if not report.trace:
        if stepping and report.metrics:
            lines.append(f"trial_steps_per_s = {report.metrics['work_per_s']:.6g} 1/s")
        frac = line["failed"] / line["attempted"]
        lines.append(f"failed_frac = {frac:.6g} ({line['failed']} of {line['attempted']} "
                     "operations)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default 1234, the recorded one)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of workload bodies to time "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        import_program()
        import workloads
    except (OSError, ImportError, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    run_dir = OUT_DIR / f"{args.workload}-seed{seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    report = workloads.run_workload(args.workload, seed, seconds, bool(args.trace),
                                    run_dir / "work")
    line = result_line(report, spec)
    env = environment()
    record = {
        "workload": args.workload, "seed": seed, "seconds": seconds, "trace": args.trace,
        "result": line, "setup_s_samples": report.setup_s, "wall_s_samples": report.wall_s,
        "failures": report.failures, "digests": report.digests, "environment": env,
    }
    with open(run_dir / "result.json", "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    if report.trace:
        report.tracer.write(run_dir / "spans.jsonl")

    for text in summary(report, line, workloads.WORKLOADS[args.workload].stepping):
        print(text)
    print("# environment " + json.dumps(env, sort_keys=True))
    for failure in report.failures:
        print(f"# FAILED {failure}")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
