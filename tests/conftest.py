"""Shared fixtures: builtin setups and their solved scent fields.

Field solves are session-scoped because they are by far the most expensive
setup step and every field is immutable once solved.
"""

import os

import pytest

from schoolsim.cli import run_environment
from schoolsim.experiment import builtin_config
from schoolsim.scent import solve_field

BUILTIN_NAMES = ("config1-left", "config1-right", "config2", "config3")


# The golden digest and the c07 numbers depend on it.  Read when pytest loads
# this file, before collection imports perfbench/run.py, which sets the
# thread variables (too late to change the loaded BLAS).
_ENVIRONMENT = run_environment()
THREAD_ENV = _ENVIRONMENT.pop("thread_env")
BLAS_ENVIRONMENT = " ".join(f"{key}={value}"
                            for key, value in {**THREAD_ENV, **_ENVIRONMENT}.items())


def pytest_collection_finish(session):
    # Undo what importing perfbench/run.py set, so that the manifests the
    # tests write record the environment the session really runs in.
    for var, value in THREAD_ENV.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value


def pytest_report_header(config):
    return BLAS_ENVIRONMENT


def pytest_terminal_summary(terminalreporter, config):
    # -q leaves out the report header, so the log gets the line at its end.
    if config.get_verbosity() < 0:
        terminalreporter.write_line(BLAS_ENVIRONMENT)


@pytest.fixture(scope="session")
def thread_env():
    """The thread variables as they were when the session started."""
    return dict(THREAD_ENV)


@pytest.fixture(scope="session")
def config1_left():
    return builtin_config("config1-left")


@pytest.fixture(scope="session")
def config2():
    return builtin_config("config2")


@pytest.fixture(scope="session")
def config3():
    return builtin_config("config3")


@pytest.fixture(scope="session")
def field_config1_left(config1_left):
    return solve_field(config1_left.arena, config1_left.food)


@pytest.fixture(scope="session")
def field_config2(config2):
    return solve_field(config2.arena, config2.food)


@pytest.fixture(scope="session")
def field_config3(config3):
    return solve_field(config3.arena, config3.food)


@pytest.fixture(scope="session")
def all_fields(config1_left, config2, config3,
               field_config1_left, field_config2, field_config3):
    """(name, trial, field) for every builtin pairing."""
    right = builtin_config("config1-right")
    return [
        ("config1-left", config1_left, field_config1_left),
        ("config1-right", right, solve_field(right.arena, right.food)),
        ("config2", config2, field_config2),
        ("config3", config3, field_config3),
    ]
