"""Config-file loading, validation, and round-trip serialization.

Configs are JSON with nested keys named after the dataclass fields.  A
file may name a ``builtin`` preset and then override any subset of keys;
an ``overrides`` map of dotted paths is applied on top, and command-line
``--set`` overrides win over everything in the file.
"""

import json
import re
from contextlib import contextmanager
from dataclasses import dataclass

from .geometry import Arena, AxisRect, Vec2
from .scent import DEFAULT_SPACING, FoodSpec
from .dynamics import ModelParams
from .metrics import Classifier
from .experiment import TrialConfig, builtin_config

PARAM_FIELDS = ("attraction", "alignment", "avoidance", "p", "q", "P", "Q",
                "r", "R", "sensitivity", "noise", "vmax", "dt")
CLASSIFIER_FIELDS = ("kind", "food_center", "success_radius",
                     "left_threshold", "right_threshold")
SWEEP_FIELDS = ("n_min", "n_max", "trials", "base_seed", "jobs")
TOP_FIELDS = ("builtin", "arena", "food", "params", "n_fish", "horizon",
              "init_region", "classifier", "seed", "spacing", "sweep", "overrides")


class ConfigError(ValueError):
    """A config file or command-line input failed validation."""


@dataclass(frozen=True)
class SweepSpec:
    """Optional sweep defaults carried by a config file."""

    n_min: int | None = None
    n_max: int | None = None
    trials: int | None = None
    base_seed: int | None = None
    jobs: int | None = None


@dataclass(frozen=True)
class RunSpec:
    """A parsed config: the trial template plus file-level extras."""

    trial: TrialConfig
    spacing: float = DEFAULT_SPACING
    sweep: SweepSpec | None = None


def _require(cond, path, msg):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


@contextmanager
def _reraise(prefix=None):
    """Turn a ValueError from a constructor into a ConfigError under prefix."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{prefix}: {e}" if prefix else str(e)) from e


def _as_float(v, path):
    _require(isinstance(v, (int, float)) and not isinstance(v, bool), path,
             f"expected a number, got {v!r}")
    return float(v)


def _as_int(v, path):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    if isinstance(v, float):
        _require(v == int(v), path, f"expected an integer, got {v!r}")
    return int(v)


def _as_dict(v, path, allowed):
    _require(isinstance(v, dict), path, f"expected an object, got {type(v).__name__}")
    for k in v:
        _require(k in allowed, f"{path}.{k}", "unknown field")
    return v


def _vec(d, path) -> Vec2:
    d = _as_dict(d, path, ("x", "y"))
    _require("x" in d and "y" in d, path, "needs both x and y")
    return Vec2(_as_float(d["x"], f"{path}.x"), _as_float(d["y"], f"{path}.y"))


def _rect(d, path) -> AxisRect:
    d = _as_dict(d, path, ("lo", "hi"))
    _require("lo" in d and "hi" in d, path, "needs both lo and hi")
    with _reraise(path):
        return AxisRect(_vec(d["lo"], f"{path}.lo"), _vec(d["hi"], f"{path}.hi"))


def _build_trial(d: dict) -> TrialConfig:
    for key in ("arena", "food", "params", "n_fish", "horizon", "init_region", "classifier"):
        _require(key in d, key, "missing required field")

    ad = _as_dict(d["arena"], "arena", ("bounds", "obstacles"))
    _require("bounds" in ad, "arena.bounds", "missing required field")
    obstacles = ad.get("obstacles", [])
    _require(isinstance(obstacles, list), "arena.obstacles", "expected a list")
    with _reraise("arena"):
        arena = Arena(_rect(ad["bounds"], "arena.bounds"),
                      tuple(_rect(o, f"arena.obstacles[{k}]") for k, o in enumerate(obstacles)))

    fd = _as_dict(d["food"], "food", ("center", "radius", "density", "diffusion", "decay"))
    _require("center" in fd, "food.center", "missing required field")
    with _reraise("food"):
        food = FoodSpec(center=_vec(fd["center"], "food.center"),
                        **{k: _as_float(fd[k], f"food.{k}") for k in
                           ("radius", "density", "diffusion", "decay") if k in fd})

    pd = _as_dict(d["params"], "params", PARAM_FIELDS)
    with _reraise("params"):
        params = ModelParams(**{k: _as_float(v, f"params.{k}") for k, v in pd.items()})

    cd = _as_dict(d["classifier"], "classifier", CLASSIFIER_FIELDS)
    _require("kind" in cd, "classifier.kind", "missing required field")
    kw = {"kind": cd["kind"]}
    if "food_center" in cd:
        kw["food_center"] = _vec(cd["food_center"], "classifier.food_center")
    for k in ("success_radius", "left_threshold", "right_threshold"):
        if k in cd:
            kw[k] = _as_float(cd[k], f"classifier.{k}")
    with _reraise("classifier"):
        classifier = Classifier(**kw)

    with _reraise():
        return TrialConfig(
            arena=arena, food=food, params=params,
            n_fish=_as_int(d["n_fish"], "n_fish"),
            horizon=_as_float(d["horizon"], "horizon"),
            init_region=_rect(d["init_region"], "init_region"),
            classifier=classifier,
            seed=_as_int(d.get("seed", 0), "seed"),
        )


def config_to_dict(trial: TrialConfig, spacing: float | None = None) -> dict:
    """Canonical plain-dict form of a trial config (inverse of parsing)."""
    def vec(v):
        return {"x": v.x, "y": v.y}

    def rect(r):
        return {"lo": vec(r.lo), "hi": vec(r.hi)}

    cls = {"kind": trial.classifier.kind}
    if trial.classifier.food_center is not None:
        cls["food_center"] = vec(trial.classifier.food_center)
    for k in ("success_radius", "left_threshold", "right_threshold"):
        v = getattr(trial.classifier, k)
        if v is not None:
            cls[k] = v

    d = {
        "arena": {"bounds": rect(trial.arena.bounds),
                  "obstacles": [rect(o) for o in trial.arena.obstacles]},
        "food": {"center": vec(trial.food.center), "radius": trial.food.radius,
                 "density": trial.food.density, "diffusion": trial.food.diffusion,
                 "decay": trial.food.decay},
        "params": {k: getattr(trial.params, k) for k in PARAM_FIELDS},
        "n_fish": trial.n_fish,
        "horizon": trial.horizon,
        "init_region": rect(trial.init_region),
        "classifier": cls,
        "seed": trial.seed,
    }
    if spacing is not None:
        d["spacing"] = spacing
    return d


def _deep_merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def apply_dotted(d: dict, path: str, value):
    """Set a nested key named by a dotted path, creating objects as needed."""
    keys = path.split(".")
    cur = d
    for k in keys[:-1]:
        nxt = cur.setdefault(k, {})
        if not isinstance(nxt, dict):
            raise ConfigError(f"{path}: {k} is not an object, cannot descend into it")
        cur = nxt
    cur[keys[-1]] = value


def parse_config_dict(raw: dict, cli_overrides: dict | None = None) -> RunSpec:
    """Resolve a raw config dict into a validated RunSpec.

    Precedence, lowest to highest: builtin preset, explicit file fields,
    the file's ``overrides`` map, then ``cli_overrides``.
    """
    _as_dict(raw, "config", TOP_FIELDS)
    d = {}
    if "builtin" in raw:
        name = raw["builtin"]
        _require(isinstance(name, str), "builtin", f"expected a preset name, got {name!r}")
        with _reraise("builtin"):
            d = config_to_dict(builtin_config(name))
    explicit = {k: v for k, v in raw.items() if k not in ("builtin", "overrides")}
    d = _deep_merge(d, explicit)
    for path, value in raw.get("overrides", {}).items():
        apply_dotted(d, path, value)
    for path, value in (cli_overrides or {}).items():
        apply_dotted(d, path, value)

    spacing = _as_float(d.pop("spacing", DEFAULT_SPACING), "spacing")
    sweep = None
    if "sweep" in d:
        sd = _as_dict(d.pop("sweep"), "sweep", SWEEP_FIELDS)
        sweep = SweepSpec(**{k: _as_int(v, f"sweep.{k}") for k, v in sd.items()})
    return RunSpec(trial=_build_trial(d), spacing=spacing, sweep=sweep)


def _anchor_line(text: str, field_path: str) -> int | None:
    """Best-effort line number of the deepest named key in a field path."""
    pos = 0
    line = None
    for seg in re.split(r"[.\[]", field_path):
        seg = seg.rstrip("]")
        if not seg or seg.isdigit():
            continue
        hit = text.find(f'"{seg}"', pos)
        if hit < 0:
            break
        line = text.count("\n", 0, hit) + 1
        pos = hit + 1
    return line


def parse_config(path, cli_overrides: dict | None = None) -> RunSpec:
    """Load and validate a JSON config file.

    Error messages are anchored to the file: parse errors carry line:column,
    validation errors carry the offending field path and, when the field can
    be located in the text, its line.
    """
    try:
        with open(path) as fh:
            text = fh.read()
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    try:
        return parse_config_dict(raw, cli_overrides)
    except ConfigError as e:
        msg = str(e)
        line = _anchor_line(text, msg.split(":", 1)[0])
        where = f"{path}:{line}" if line is not None else str(path)
        raise ConfigError(f"{where}: {msg}") from e


def write_config(spec: RunSpec, path):
    """Write a RunSpec back to JSON; parse_config inverts this exactly."""
    d = config_to_dict(spec.trial, spacing=spec.spacing)
    if spec.sweep is not None:
        d["sweep"] = {k: getattr(spec.sweep, k) for k in SWEEP_FIELDS
                      if getattr(spec.sweep, k) is not None}
    with open(path, "w") as fh:
        json.dump(d, fh, indent=2, sort_keys=True)
        fh.write("\n")
