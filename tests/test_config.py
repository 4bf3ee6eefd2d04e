"""Config files: precedence, validation anchoring, exact round trips."""

import dataclasses
import json
import re

import pytest

from schoolsim.config import (ConfigError, RunSpec, SweepSpec, apply_dotted,
                              config_to_dict, parse_config, parse_config_dict)
from schoolsim.dynamics import ModelParams
from schoolsim.experiment import TrialConfig, builtin_config
from schoolsim.geometry import AxisRect, Vec2
from schoolsim.metrics import Classifier
from schoolsim.scent import FoodSpec

BUILTINS = ("config1-left", "config1-right", "config2", "config3")


def load(tmp_path, payload, cli=None, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return parse_config(path, cli)


# ---------------------------------------------------------------- happy paths

def test_builtin_passthrough(tmp_path):
    for name in BUILTINS:
        spec = load(tmp_path, {"builtin": name})
        assert spec.trial == builtin_config(name)
        assert spec.spacing == 0.02
        assert spec.sweep is None


def test_noop_override_is_identity(tmp_path):
    spec = load(tmp_path, {"builtin": "config2",
                           "overrides": {"params.sensitivity": 2.0}})
    assert spec.trial == builtin_config("config2")


def test_single_field_override(tmp_path):
    spec = load(tmp_path, {"builtin": "config1-left",
                           "overrides": {"horizon": 12}})
    assert spec.trial.horizon == 12.0
    assert spec.trial == dataclasses.replace(builtin_config("config1-left"),
                                             horizon=12.0)


def test_explicit_keys_merge_over_builtin(tmp_path):
    spec = load(tmp_path, {"builtin": "config2",
                           "params": {"sensitivity": 1.5},
                           "n_fish": 6})
    assert spec.trial.params.sensitivity == 1.5
    assert spec.trial.n_fish == 6
    # untouched nested fields survive the merge
    assert spec.trial.params.vmax == 0.8
    assert spec.trial.food.center.x == 3.5


def test_precedence_ladder(tmp_path):
    payload = {"builtin": "config2",
               "params": {"sensitivity": 1.5},
               "overrides": {"params.sensitivity": 1.0}}
    assert load(tmp_path, payload).trial.params.sensitivity == 1.0
    got = load(tmp_path, payload, cli={"params.sensitivity": 0.25})
    assert got.trial.params.sensitivity == 0.25


def test_spacing_and_sweep_sections(tmp_path):
    spec = load(tmp_path, {"builtin": "config2", "spacing": 0.04,
                           "sweep": {"n_min": 2, "n_max": 8, "trials": 10,
                                     "base_seed": 99, "jobs": 2}})
    assert spec.spacing == 0.04
    assert spec.sweep == SweepSpec(n_min=2, n_max=8, trials=10, base_seed=99, jobs=2)
    partial = load(tmp_path, {"builtin": "config2", "sweep": {"trials": 5}})
    assert partial.sweep == SweepSpec(trials=5)


@pytest.mark.parametrize("sweep, message", [
    ({"n_min": 1}, "bad school-size range [1, None]"),
    ({"n_max": 1}, "bad school-size range [None, 1]"),
    ({"n_min": 5, "n_max": 4}, "bad school-size range [5, 4]"),
    ({"trials": 0}, "SweepSpec.trials must be positive, got 0"),
    ({"jobs": 0}, "SweepSpec.jobs must be positive, got 0"),
])
def test_bad_sweep_section_is_rejected_when_parsed(tmp_path, sweep, message):
    with pytest.raises(ConfigError, match=re.escape(f"sweep: {message}")):
        load(tmp_path, {"builtin": "config2", "sweep": sweep})


def test_fully_explicit_config(tmp_path):
    payload = config_to_dict(builtin_config("config3"))
    spec = load(tmp_path, payload)
    assert spec.trial == builtin_config("config3")


# ---------------------------------------------------------------- round trips

def test_write_then_parse_is_identity(tmp_path):
    for k, name in enumerate(BUILTINS):
        spec = RunSpec(trial=builtin_config(name), spacing=0.02,
                       sweep=SweepSpec(n_min=2, n_max=4, trials=3, base_seed=7))
        path = tmp_path / f"rt{k}.json"
        with open(path, "w") as fh:
            json.dump(config_to_dict(spec), fh, indent=2, sort_keys=True)
        assert parse_config(path) == spec


def test_round_trip_keeps_exact_floats(tmp_path):
    base = builtin_config("config2")
    trial = dataclasses.replace(
        base,
        params=dataclasses.replace(base.params, sensitivity=1 / 3, noise=7e-4),
        horizon=0.07,
    )
    spec = RunSpec(trial=trial, spacing=0.05, sweep=None)
    path = tmp_path / "exact.json"
    with open(path, "w") as fh:
        json.dump(config_to_dict(spec), fh, indent=2, sort_keys=True)
    back = parse_config(path)
    assert back == spec
    assert back.trial.params.sensitivity == 1 / 3


def every_field_config(classifier):
    """config3's two obstacles with every other field off its default."""
    base = builtin_config("config3")
    params = ModelParams(**{f.name: 1.25 * f.default
                            for f in dataclasses.fields(ModelParams)})
    food = FoodSpec(center=Vec2(6.25, 0.5), radius=0.05, density=40.0,
                    diffusion=0.15, decay=0.3)
    return TrialConfig(arena=base.arena, food=food, params=params, n_fish=7, horizon=3.5,
                       init_region=AxisRect(Vec2(0.5, 3.0), Vec2(1.5, 3.75)),
                       classifier=classifier, seed=11)


def assert_keys_are_fields(d, obj, path="config"):
    """Each JSON object's keys are its dataclass's non-None fields, in order."""
    present = [f.name for f in dataclasses.fields(obj) if getattr(obj, f.name) is not None]
    assert list(d) == present, path
    for name in present:
        value = getattr(obj, name)
        if dataclasses.is_dataclass(value):
            assert_keys_are_fields(d[name], value, f"{path}.{name}")
        elif isinstance(value, tuple):
            assert len(d[name]) == len(value), f"{path}.{name}"
            for k, (item, v) in enumerate(zip(d[name], value)):
                assert_keys_are_fields(item, v, f"{path}.{name}[{k}]")


@pytest.mark.parametrize("classifier", [
    Classifier("center-distance", food_center=Vec2(6.25, 0.5), success_radius=0.75,
               left_threshold=1.0, right_threshold=4.0, component_delta=0.45),
    Classifier("min-x-threshold", right_threshold=3.0, component_delta=0.2),
    Classifier("band-three-state", left_threshold=1.5, right_threshold=5.5,
               component_delta=1.5),
])
def test_every_field_round_trips(classifier):
    trial = every_field_config(classifier)
    for obj in (trial, trial.params, trial.food):
        for f in dataclasses.fields(obj):
            if f.default is not dataclasses.MISSING:
                assert getattr(obj, f.name) != f.default, f.name
    assert len(trial.arena.obstacles) == 2
    d = config_to_dict(trial)
    assert parse_config_dict(d).trial == trial
    assert_keys_are_fields(d, trial)


def test_builtin_cache_is_not_mutated_by_overrides():
    first = parse_config_dict({"builtin": "config2",
                               "overrides": {"params.sensitivity": 1.0,
                                             "food.center.x": 3.0}})
    assert first.trial.params.sensitivity == 1.0
    again = parse_config_dict({"builtin": "config2"})
    assert again.trial.params.sensitivity == 2.0
    assert again.trial == builtin_config("config2")


# ----------------------------------------------------------------- bad inputs

def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"builtin": "config2",\n  "n_fish": }\n')
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(path) in str(err.value)
    assert ":2:" in str(err.value)  # line of the dangling value


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "nope.json")


def test_top_level_must_be_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "top level" in str(err.value)


def test_unknown_keys_are_named(tmp_path):
    with pytest.raises(ConfigError) as err:
        load(tmp_path, {"builtin": "config2", "bogus": 1})
    assert "config.bogus" in str(err.value)
    with pytest.raises(ConfigError) as err:
        load(tmp_path, {"builtin": "config2", "params": {"mass": 1.0}})
    assert "params.mass" in str(err.value)


def test_unknown_builtin_name(tmp_path):
    with pytest.raises(ConfigError) as err:
        load(tmp_path, {"builtin": "config9"})
    assert "builtin" in str(err.value)


def test_missing_required_field(tmp_path):
    payload = config_to_dict(builtin_config("config2"))
    del payload["food"]
    with pytest.raises(ConfigError) as err:
        load(tmp_path, payload)
    assert "food: missing required field" in str(err.value)


def test_missing_nested_field_anchors_to_its_object(tmp_path):
    # a fully explicit config2; the "x" keys after food.center must not
    # capture the anchor
    payload = config_to_dict(builtin_config("config2"))
    del payload["food"]["center"]["x"]
    path = tmp_path / "nox.json"
    text = json.dumps(payload, indent=1)
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    msg = str(err.value)
    assert "food.center" in msg
    expect_line = next(i for i, ln in enumerate(text.splitlines(), 1)
                       if '"center"' in ln)
    assert msg.startswith(f"{path}:{expect_line}:")


def test_unknown_override_path_is_named(tmp_path):
    with pytest.raises(ConfigError) as err:
        load(tmp_path, {"builtin": "config2", "overrides": {"n_fsh": 4}})
    assert "n_fsh: unknown field" in str(err.value)


def test_validation_error_names_field_and_line(tmp_path):
    payload = {
        "builtin": "config2",
        "arena": {
            "bounds": {"lo": {"x": 0, "y": 0}, "hi": {"x": 4, "y": 4}},
            "obstacles": [
                {"lo": {"x": 3, "y": 2}, "hi": {"x": 2, "y": 1}},
            ],
        },
    }
    path = tmp_path / "bad.json"
    text = json.dumps(payload, indent=1)
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    msg = str(err.value)
    assert "arena.obstacles[0]" in msg
    expect_line = next(i for i, ln in enumerate(text.splitlines(), 1)
                       if '"obstacles"' in ln)
    assert msg.startswith(f"{path}:{expect_line}:")


def test_type_errors_are_config_errors(tmp_path):
    with pytest.raises(ConfigError) as err:
        load(tmp_path, {"builtin": "config2", "n_fish": 2.5})
    assert "n_fish" in str(err.value)
    with pytest.raises(ConfigError):
        load(tmp_path, {"builtin": "config2", "n_fish": True})
    with pytest.raises(ConfigError) as err:
        load(tmp_path, {"builtin": "config2", "horizon": "long"})
    assert "horizon" in str(err.value)
    # integral floats are accepted as integers
    assert load(tmp_path, {"builtin": "config2", "seed": 3.0}).trial.seed == 3


def test_semantic_validation_flows_through(tmp_path):
    # food disc pushed inside the baffle
    with pytest.raises(ConfigError) as err:
        load(tmp_path, {"builtin": "config2",
                        "overrides": {"food.center.x": 2.25, "food.center.y": 3.0}})
    assert "obstacle" in str(err.value)


def test_non_finite_classifier_threshold_is_a_config_error(tmp_path):
    path = tmp_path / "nan.json"  # Python's JSON reader accepts NaN
    path.write_text('{"builtin": "config2",\n'
                    ' "classifier": {"kind": "min-x-threshold", "right_threshold": NaN}}')
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(err.value).startswith(f"{path}:2: classifier: ")
    assert "right_threshold must be finite, got nan" in str(err.value)


def test_overrides_must_be_an_object():
    with pytest.raises(ConfigError, match="overrides: expected an object, got list"):
        parse_config_dict({"builtin": "config2", "overrides": [1]})


# -------------------------------------------------------------------- helpers

def test_apply_dotted_paths():
    d = {"a": {"b": 1}}
    apply_dotted(d, "a.b", 2)
    apply_dotted(d, "a.c.d", 3)
    assert d == {"a": {"b": 2, "c": {"d": 3}}}
    with pytest.raises(ConfigError):
        apply_dotted({"a": 5}, "a.b", 1)  # cannot descend into a scalar


def test_parse_config_dict_without_file():
    spec = parse_config_dict({"builtin": "config1-right"})
    assert spec.trial == builtin_config("config1-right")
