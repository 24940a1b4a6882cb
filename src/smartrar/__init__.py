"""Two-stage adaptive trial engine.

Simulates sequential two-stage randomised trials with binary endpoints,
drives response-adaptive randomisation from Bayesian posterior expected
utilities (with either full backward induction or a myopic variant), and
sweeps generative-scenario grids to compare adaptive against fixed
designs.
"""

__version__ = "0.1.0"

from .allocation import allocation_pair
from .core import (
    CANONICAL_DESIGNS,
    ConfigurationError,
    DesignConfig,
    PriorSpec,
    R_GRID,
    R_GRID_REDUCED,
    S_GRID,
    S_GRID_REDUCED,
    Scenario,
    TrialSettings,
    UtilityTable,
    reduced_scenario_grid,
    scenario_grid,
)
from .inference import conjugate_mean, logistic_mean
from .simulator import (
    ENGINE_IMPLEMENTATION,
    TrialResult,
    fixed_design_value,
    run_block,
    run_trial,
)
from .sweep import (
    SweepConfig,
    SweepError,
    SweepResult,
    relative_utility,
    run_sweep,
    scenario_rng,
)
