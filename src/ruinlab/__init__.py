"""Multiplicative gambler's-ruin toolkit.

Calibrates multiplicative loss thresholds to an integer lattice barrier,
evaluates the combinatorial ruin series under two coefficient conventions,
provides an exact finite-horizon oracle and closed forms, runs
reproducible Monte Carlo simulations, and rebalances probabilities for
asymmetric gain/loss legs.
"""

from .errors import DomainError, InfeasibleTargetError, RuinlabError, ValidityError
from .model import (
    RuinSpec,
    TrialModel,
    calibrate,
    generalized_distance,
    lattice_distance,
)
from .montecarlo import (
    MethodComparison,
    MethodEstimate,
    SimConfig,
    SimResult,
    bankroll_lattice_crosscheck,
    compare_methods,
    simulate,
)
from .oracle import (
    AbsorptionResult,
    expected_time_classical,
    expected_time_paper,
    ruin_probability_closed_form,
    ruin_probability_dp,
)
from .series import (
    SeriesReport,
    SeriesTerm,
    approx_arith_geometric,
    approx_simplified,
    exact_coefficient,
    paper_coefficient,
    paper_final_form,
    ruin_series,
)
from .transform import (
    RebalancedRuinInputs,
    TransformResult,
    model_mean,
    rebalance,
    rebalanced_ruin_inputs,
)

__version__ = "0.1.0"

__all__ = [
    "AbsorptionResult",
    "DomainError",
    "InfeasibleTargetError",
    "MethodComparison",
    "MethodEstimate",
    "RebalancedRuinInputs",
    "RuinSpec",
    "RuinlabError",
    "SeriesReport",
    "SeriesTerm",
    "SimConfig",
    "SimResult",
    "TransformResult",
    "TrialModel",
    "ValidityError",
    "approx_arith_geometric",
    "approx_simplified",
    "bankroll_lattice_crosscheck",
    "calibrate",
    "compare_methods",
    "exact_coefficient",
    "expected_time_classical",
    "expected_time_paper",
    "generalized_distance",
    "lattice_distance",
    "model_mean",
    "paper_coefficient",
    "paper_final_form",
    "rebalance",
    "rebalanced_ruin_inputs",
    "ruin_probability_closed_form",
    "ruin_probability_dp",
    "ruin_series",
    "simulate",
    "__version__",
]
