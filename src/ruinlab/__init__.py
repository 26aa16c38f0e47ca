"""Multiplicative gambler's-ruin toolkit.

Calibrates multiplicative loss thresholds to an integer lattice barrier,
evaluates the combinatorial ruin series under two coefficient conventions,
provides an exact finite-horizon oracle and closed forms, runs
reproducible Monte Carlo simulations, and rebalances probabilities for
asymmetric gain/loss legs.
"""

from importlib import import_module

__version__ = "0.3.0"

# Every public name loads from its module on first use (PEP 562): the
# engines import numpy, and `import ruinlab` alone loads no submodule.
_MODULE_OF = {
    **dict.fromkeys(
        ("DomainError", "InfeasibleTargetError", "RuinlabError", "ValidityError"), "errors"
    ),
    **dict.fromkeys(("RuinSpec", "TrialModel", "calibrate", "lattice_distance"), "model"),
    **dict.fromkeys(
        ("RebalancedRuinInputs", "TransformResult", "model_mean", "rebalance",
         "rebalanced_ruin_inputs"),
        "transform",
    ),
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


def __getattr__(name: str):
    """Load the public name ``name`` and bind it in this package.  Modules
    that resolve public names from here (``cli``) use this as their own
    ``__getattr__``."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


__all__ = sorted(_MODULE_OF) + ["__version__"]
