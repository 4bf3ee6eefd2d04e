"""Config-file loading, validation, and round-trip serialization.

Configs are JSON with nested keys named after the dataclass fields.  A
file may name a ``builtin`` preset and then override any subset of keys;
an ``overrides`` map of dotted paths is applied on top, and command-line
``--set`` overrides (and the flags that spell them) win over everything in
the file.

The dataclasses are the schema: ``_load`` builds any of them from its
fields and type hints (a field without a default is required, ``X | None``
means X, ``tuple[X, ...]`` is a JSON list) and ``_dump`` is its inverse,
so a new field is a config key and a ``--set`` path with no edit here.
"""

import json
import re
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache, partial

from .scent import DEFAULT_SPACING
from .experiment import TrialConfig, builtin_config


class ConfigError(ValueError):
    """A config file or command-line input failed validation."""


@dataclass(frozen=True)
class SweepSpec:
    """The sweep section of a config: school sizes n_min..n_max, trials per
    size, base seed and worker count.  A sweep needs the first four; each
    is checked here as soon as it is set."""

    n_min: int | None = None
    n_max: int | None = None
    trials: int | None = None
    base_seed: int | None = None
    jobs: int = 1

    def __post_init__(self):
        lo, hi = self.n_min, self.n_max
        if (lo is not None and lo < 2) or (hi is not None and hi < (2 if lo is None else lo)):
            raise ValueError(f"bad school-size range [{lo}, {hi}]")
        if self.trials is not None and self.trials < 1:
            raise ValueError(f"SweepSpec.trials must be positive, got {self.trials}")
        if self.jobs < 1:
            raise ValueError(f"SweepSpec.jobs must be positive, got {self.jobs}")


@dataclass(frozen=True)
class RunSpec:
    """A parsed config: the trial template plus file-level extras."""

    trial: TrialConfig
    spacing: float = DEFAULT_SPACING
    sweep: SweepSpec | None = None


def _join(path, key):
    return f"{path}.{key}" if path else key


def _as_float(v, path):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {v!r}")
    return float(v)


def _as_int(v, path):
    if isinstance(v, bool) or not (isinstance(v, int)
                                   or isinstance(v, float) and v.is_integer()):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    return int(v)


def _as_str(v, path):
    if not isinstance(v, str):
        raise ConfigError(f"{path}: expected a string, got {v!r}")
    return v


def _as_dict(v, path, allowed=None):
    if not isinstance(v, dict):
        raise ConfigError(f"{path}: expected an object, got {type(v).__name__}")
    for k in v:
        if allowed is not None and k not in allowed:
            raise ConfigError(f"{_join(path, k)}: unknown field")
    return v


def _as_tuple(load_item, v, path):
    if not isinstance(v, list):
        raise ConfigError(f"{path}: expected a list")
    return tuple(load_item(x, f"{path}[{k}]") for k, x in enumerate(v))


def _loader(tp):
    """The function (value, path) -> instance that loads a JSON value of type tp."""
    if typing.get_origin(tp) is types.UnionType:  # X | None means X
        tp = next(a for a in typing.get_args(tp) if a is not type(None))
    if typing.get_origin(tp) is tuple:  # tuple[X, ...] is a JSON list
        return partial(_as_tuple, _loader(typing.get_args(tp)[0]))
    if is_dataclass(tp):
        return partial(_load, tp)
    return {float: _as_float, int: _as_int, str: _as_str}[tp]


@cache
def _schema(cls) -> dict:
    """Field name -> (loader, required) of a dataclass, from its type hints."""
    hints = typing.get_type_hints(cls)
    return {f.name: (_loader(hints[f.name]),
                     f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


def _load(cls, d, path=""):
    """Build dataclass cls from the JSON object d found at dotted path."""
    schema = _schema(cls)
    _as_dict(d, path, schema)
    kw = {}
    for name, (load, required) in schema.items():
        if name in d:
            kw[name] = load(d[name], _join(path, name))
        elif required:
            # Name the object that lacks the field, so the error anchors to it.
            raise ConfigError(f"{path}: missing required field {name}" if path
                              else f"{name}: missing required field")
    try:
        return cls(**kw)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}" if path else str(e)) from e


def _dump(obj):
    """Inverse of _load: the JSON form of a dataclass value, None fields left out."""
    if is_dataclass(obj):
        return {name: _dump(v) for name in _schema(type(obj))
                if (v := getattr(obj, name)) is not None}
    if isinstance(obj, tuple):
        return [_dump(v) for v in obj]
    return obj


def config_to_dict(spec: RunSpec | TrialConfig) -> dict:
    """Canonical plain-dict form of a config, the inverse of parse_config_dict:
    a RunSpec's trial fields sit at the top level beside spacing and sweep."""
    d = _dump(spec)
    d |= d.pop("trial", {})
    return d


@cache
def _builtin_json(name: str) -> str:
    """A preset's dict form as JSON text; each parse loads its own copy."""
    return json.dumps(config_to_dict(builtin_config(name)))


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
    _as_dict(raw, "config", {"builtin", "overrides", "spacing", "sweep",
                             *_schema(TrialConfig)})
    d = {}
    if "builtin" in raw:
        name = raw["builtin"]
        if not isinstance(name, str):
            raise ConfigError(f"builtin: expected a preset name, got {name!r}")
        try:
            d = json.loads(_builtin_json(name))
        except ValueError as e:
            raise ConfigError(f"builtin: {e}") from e
    explicit = {k: v for k, v in raw.items() if k not in ("builtin", "overrides")}
    d = _deep_merge(d, explicit)
    for path, value in _as_dict(raw.get("overrides", {}), "overrides").items():
        apply_dotted(d, path, value)
    for path, value in (cli_overrides or {}).items():
        apply_dotted(d, path, value)

    spacing = _as_float(d.pop("spacing", DEFAULT_SPACING), "spacing")
    sweep = _load(SweepSpec, d.pop("sweep"), "sweep") if "sweep" in d else None
    return RunSpec(trial=_load(TrialConfig, d), spacing=spacing, sweep=sweep)


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
