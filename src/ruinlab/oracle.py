"""Ground-truth engines for the lattice ruin problem.

Ruin is the first passage of a +/-1 walk (up with probability ``p``, down
with probability ``q``) to ``-d``.  That passage happens only on steps
``d + 2N``, with mass given in closed form by the hitting-time (ballot)
theorem, Feller, *An Introduction to Probability Theory*, Vol. I, III.7:

    f(d + 2N) = d / (d + 2N) * C(d + 2N, N) * q**(d + N) * p**N

:func:`first_passage_masses` evaluates every mass within a horizon at once
from the ratio of consecutive terms; the horizon oracle sums them.
Classical closed forms and the closed-form expected-time estimators are
provided alongside for comparison tables.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError

# The running product restarts from a power-of-two scale every this many
# factors: factors are rescaled into [1/2, 1), and 2**-1000 is still a
# normal double, so no partial product can underflow.
_RESCALE_EVERY = 1000


def first_passage_masses(p: float, d: int, horizon: int) -> list[float]:
    """First-passage masses ``f(d + 2N)`` for ``N = 0 .. (horizon - d) // 2``.

    One running product: ``d`` factors of ``q`` give ``f(d) = q**d``, then

        f(d + 2N + 2) / f(d + 2N) = (d+2N)(d+2N+1) / ((N+1)(d+N+1)) * p*q

    Each factor is split into a mantissa in [1/2, 1) and a power of two;
    the powers add exactly and the mantissa product is rescaled every
    ``_RESCALE_EVERY`` factors, so an underflowing ``q**d`` (large ``d``)
    does not zero later masses that are representable.  ``p`` in {0, 1}
    gives exact zeros.  Arguments are not validated.
    """
    q = 1.0 - p
    n = np.arange((horizon - d) // 2, dtype=float)
    length = d + 2.0 * n
    ratio = length * (length + 1.0) / ((n + 1.0) * (d + n + 1.0)) * p * q
    mantissa, exponent = np.frexp(np.concatenate((np.full(d, q), ratio)))
    exponent = np.cumsum(exponent, dtype=np.int64)
    products = np.empty(len(mantissa))
    scale, shift = 1.0, 0
    for start in range(0, len(mantissa), _RESCALE_EVERY):
        stop = start + _RESCALE_EVERY
        block = np.cumprod(mantissa[start:stop]) * scale
        products[start:stop] = np.ldexp(block, exponent[start:stop] + shift)
        scale, rescale = math.frexp(block[-1])
        shift += rescale
    return products[d - 1 :].tolist()


def check_walk(p: float, d: int) -> None:
    """Reject a gain probability outside [0, 1] or a distance below 1."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p}")
    if d < 1:
        raise DomainError(f"distance must be >= 1, got {d}")


def check_horizon(horizon: int, name: str = "horizon") -> None:
    """Reject a kernel horizon past 2**59 steps: the kernel holds a double
    per step, and numpy cannot index 2**60 of them."""
    if horizon > 2**59:
        raise DomainError(f"{name} must be <= 2**59, got {horizon}")


class AbsorptionResult(NamedTuple):
    """Ruin mass absorbed within a finite horizon.

    ``expected_time_censored`` is the mean number of steps among paths
    ruined within the horizon (NaN when no mass was absorbed, e.g. p = 1).
    ``survival_mass`` is ``1 - ruin_probability_within_horizon``; the ruin
    probability is accurate to about 1e-15 absolute and never exceeds 1, so
    the survival mass is never negative.
    """

    ruin_probability_within_horizon: float
    horizon: int
    expected_time_censored: float
    survival_mass: float
    ruin_time_distribution: dict[int, float] | None = None


def ruin_probability_dp(
    p: float,
    d: int,
    horizon: int,
    keep_distribution: bool = False,
) -> AbsorptionResult:
    """Exact probability that net loss reaches ``d`` within ``horizon`` steps.

    "Within horizon" is inclusive of the horizon-th step.  The ruin
    probability is the correctly rounded sum (``math.fsum``) of the
    first-passage masses from :func:`first_passage_masses`, clamped to 1:
    the float ``p + (1 - p)`` need not be exactly 1, and at p = 0.45,
    d = 1300, horizon 1e5 the masses sum to 1 + 7e-13.  The survival mass
    is its complement.

    With ``keep_distribution`` the per-step absorbed mass is returned as a
    ``{step: mass}`` map, ready for JSON: int steps of the parity of ``d``,
    in step order, to their nonzero masses.  Masses summing past 1 are
    divided by their sum, so the map agrees with the clamped probability.
    """
    check_walk(p, d)
    check_horizon(d, "distance")
    if horizon < d:
        raise DomainError(
            f"horizon must be >= distance (ruin needs at least d steps), "
            f"got horizon={horizon}, d={d}"
        )
    check_horizon(horizon)
    masses = first_passage_masses(p, d, horizon)
    steps = range(d, horizon + 1, 2)
    total = math.fsum(masses)
    ruin_probability = min(total, 1.0)
    mean_time = math.fsum(s * m for s, m in zip(steps, masses)) / total if total > 0.0 else math.nan
    distribution = None
    if keep_distribution:
        norm = max(total, 1.0)
        distribution = {step: mass / norm for step, mass in zip(steps, masses) if mass}
    return AbsorptionResult(
        ruin_probability, horizon, mean_time, 1.0 - ruin_probability, distribution
    )


def ruin_probability_closed_form(p: float, d: int) -> float:
    """Classical infinite-horizon ruin probability ``min(1, (q/p)**d)``.

    Ruin is certain for ``p <= 1/2``; the degenerate ``p = 0`` and
    ``p = 1`` cases are exactly 1 and 0.
    """
    check_walk(p, d)
    if p <= 0.5:
        return 1.0
    if p == 1.0:
        return 0.0
    return ((1.0 - p) / p) ** d


def expected_time_paper(p: float, d: int) -> float:
    """Closed-form time-to-ruin estimator ``(d-1)/(1 - p**d) + (d-1)``.

    Reported verbatim in comparison tables but never used as a reference:
    it does not match the true first-passage mean in general (at p = 0 it
    gives ``2(d-1)`` where the walk ruins in exactly ``d`` steps).
    """
    check_walk(p, d)
    if p == 1.0:
        raise DomainError("estimator undefined at p = 1 (denominator vanishes)")
    return (d - 1) / (1.0 - p**d) + (d - 1)


def expected_time_classical(p: float, d: int) -> float:
    """Mean ruin time given ruin, ``d / |q - p|`` (Feller, Vol. I, XIV.3-4).

    For p < 1/2 ruin is certain and this is the plain drift rule; for
    p > 1/2 the walk conditioned on ruin is the walk with p and q swapped.
    At p = 1/2 ruin is certain and the mean infinite: ``math.inf``, a value,
    not an error.  At p = 1 nothing ruins: ``DomainError``.
    """
    check_walk(p, d)
    if p == 1.0:
        raise DomainError("mean given ruin undefined at p = 1 (ruin impossible)")
    if p == 0.5:
        return math.inf
    return d / (1.0 - 2.0 * p) if p < 0.5 else d / (2.0 * p - 1.0)
