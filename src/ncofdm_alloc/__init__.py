"""Max-min spectrum allocation for NC-OFDM cognitive-radio links.

Exact branch-and-bound allocation under a per-link spectral-span cap, an
exhaustive oracle that the tests cross-validate it with, scenario simulation (fading,
interference, reallocation experiments, span trade-off sweeps) and a
guardband post-processing pass.
"""

from .model import (
    AllocationMatrix,
    BOLTZMANN_J_PER_K,
    GainMatrix,
    InterfererSpec,
    LinkSpec,
    ProblemInstance,
    RateResult,
    ScenarioConfig,
    SPEED_OF_LIGHT_M_PER_S,
    ValidationError,
    compute_capacity,
    compute_sinr,
    evaluate_rates,
    path_loss_gain,
    sample_rician_power_gain,
    spectral_span,
)
from .solver import (
    SolveResult,
    solve,
    verify_solution,
)
from .oracle import (
    EnumerationBudgetError,
    brute_force,
)
from .guardband import (
    GuardbandReport,
    NulledChannel,
    insert_guardbands,
    validate_guardbands,
)
from .scenario import (
    BUILTIN_SCENARIOS,
    ExperimentResult,
    TradeoffCurve,
    builtin_scenario,
    instance_from_gains,
    interference_row,
    load_scenario,
    realize_gains,
    realize_instance,
    reallocation_experiment,
    scenario_from_dict,
    sweep,
)

__version__ = "0.1.0"
