"""Fish-school foraging simulator.

A school of fish is modelled as stochastic particles coupled by pairwise
attraction/repulsion and velocity alignment, steered away from tank walls
and obstacles by ray-cast avoidance, and drawn toward a food source by the
gradient of a diffused scent field.  The package solves the scent field,
integrates the school, classifies foraging outcomes, and runs Monte Carlo
sweeps over school size.
"""

__version__ = "0.1.0"

from .geometry import (Arena, AxisRect, Vec2, clamp_many, contains_many,
                       ray_hits_many)
from .scent import (FieldSolveError, FoodSpec, GridError, ScentField,
                    read_field_csv, sample_gradient_many, solve_field,
                    write_field_csv)
from .dynamics import (ForceBlowUpError, ModelParams, SwarmState, advance,
                       step, total_forces)
from .metrics import (Classifier, OutcomeState, classify,
                      connected_components, school_center)
from .experiment import (ExperimentResult, TrialConfig, TrialOutcome,
                         builtin_config, initial_state, run_sweep, run_trial,
                         run_trials, trial_seed)
from .config import ConfigError, RunSpec, SweepSpec, parse_config

__all__ = [
    "__version__",
    "Arena", "AxisRect", "Vec2", "clamp_many", "contains_many",
    "ray_hits_many",
    "FieldSolveError", "FoodSpec", "GridError", "ScentField",
    "read_field_csv", "sample_gradient_many", "solve_field",
    "write_field_csv",
    "ForceBlowUpError", "ModelParams", "SwarmState", "advance", "step",
    "total_forces",
    "Classifier", "OutcomeState", "classify", "connected_components",
    "school_center",
    "ExperimentResult", "TrialConfig", "TrialOutcome",
    "builtin_config", "initial_state", "run_sweep", "run_trial",
    "run_trials", "trial_seed",
    "ConfigError", "RunSpec", "SweepSpec", "parse_config",
]
