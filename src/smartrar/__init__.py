"""Two-stage adaptive trial engine.

Simulates sequential two-stage randomised trials with binary endpoints,
drives response-adaptive randomisation from Bayesian posterior expected
utilities (with either full backward induction or a myopic variant), and
sweeps generative-scenario grids to compare adaptive against fixed
designs.
"""

__version__ = "0.1.0"

from .allocation import AllocationProbs, allocation_probs, equal_allocation
from .core import (
    ConfigurationError,
    DesignConfig,
    History,
    PatientRecord,
    PriorSpec,
    R_GRID,
    R_GRID_REDUCED,
    S_GRID,
    S_GRID_REDUCED,
    Scenario,
    TrialResult,
    UtilityTable,
    reduced_scenario_grid,
    scenario_grid,
    stage2_histories,
    canonical_designs,
    utility_lookup,
)
from .inference import (
    CellCounts,
    CoefficientVector,
    McmcPosterior,
    PosteriorSummary,
    StageData,
    accumulate,
    linear_predictor,
    posterior_conjugate,
    posterior_conjugate_cells,
    posterior_mcmc,
    split_chain_rhat,
)
from .policy import PolicySnapshot, QValue, brute_force_value, optimal_policy, q_stage1, q_stage2
from .simulator import ENGINE_IMPLEMENTATION, InterimSchedule, InterimSnapshot, run_trial, true_value
from .sweep import (
    MatrixBundle,
    MatrixPanel,
    RelativeRow,
    SweepConfig,
    SweepError,
    SweepResult,
    SweepRow,
    IncompleteGridError,
    figure_matrix,
    matrix_bundle_from_cells,
    run_sweep,
    trial_seed,
)
