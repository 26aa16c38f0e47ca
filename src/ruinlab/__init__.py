"""Multiplicative gambler's-ruin toolkit.

Calibrates multiplicative loss thresholds to an integer lattice barrier,
evaluates the combinatorial ruin series under two coefficient conventions,
provides an exact finite-horizon oracle and closed forms, runs
reproducible Monte Carlo simulations, and rebalances probabilities for
asymmetric gain/loss legs.
"""

from importlib import import_module

from .errors import DomainError, InfeasibleTargetError, RuinlabError, ValidityError
from .model import RuinSpec, TrialModel, calibrate, lattice_distance
from .transform import (
    RebalancedRuinInputs,
    TransformResult,
    model_mean,
    rebalance,
    rebalanced_ruin_inputs,
)

__version__ = "0.3.0"

# The numeric engines import numpy, so they load on first use (PEP 562):
# commands that only calibrate or transform start without it.
_ENGINE_OF = {
    **dict.fromkeys(
        ("MethodComparison", "MethodEstimate", "SimConfig", "SimResult",
         "compare_methods", "engine_record", "simulate"),
        "montecarlo",
    ),
    **dict.fromkeys(
        ("AbsorptionResult", "expected_time_classical", "expected_time_paper",
         "ruin_probability_closed_form", "ruin_probability_dp"),
        "oracle",
    ),
    **dict.fromkeys(
        ("SeriesReport", "SeriesTerm", "approx_arith_geometric", "approx_simplified",
         "exact_coefficient", "paper_coefficient", "paper_final_form", "ruin_series"),
        "series",
    ),
}


def _engine_attr(namespace: dict, name: str):
    """Load the engine name ``name`` and bind it in the module ``namespace``
    (this package's or a module that resolves engine names from it)."""
    if name not in _ENGINE_OF:
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
    value = namespace[name] = getattr(import_module(f".{_ENGINE_OF[name]}", __name__), name)
    return value


def __getattr__(name: str):
    return _engine_attr(globals(), name)


__all__ = sorted([
    "DomainError",
    "InfeasibleTargetError",
    "RebalancedRuinInputs",
    "RuinSpec",
    "RuinlabError",
    "TransformResult",
    "TrialModel",
    "ValidityError",
    "calibrate",
    "lattice_distance",
    "model_mean",
    "rebalance",
    "rebalanced_ruin_inputs",
    *_ENGINE_OF,
]) + ["__version__"]
