"""Combinatorial ruin-probability series and its closed-form shortcuts.

A ruin path with ``N`` gains against a barrier at distance ``d`` has length
``d + 2N`` and probability ``q**(d+N) * p**N``.  Two counting rules for the
number of such paths are provided side by side:

* ``paper`` mode: the pencil-and-paper combination count
  ``C(d+2N-2, N)`` minus, for ``N >= 2``, the correction ``C(2N-2, N)``.
  Exact for ``N <= 2``, an overcount from ``N = 3`` on.
* ``exact`` mode: the true first-passage count, i.e. the number of
  gain/loss sequences whose net loss reaches ``d`` for the first time on
  the final step.

Each term of :func:`ruin_series` carries its count as an exact integer;
:func:`term_probabilities` needs none: paper mode scales the kernel's
masses (:func:`ruinlab.oracle.first_passage_masses`) by a count ratio.
"""
from __future__ import annotations

import math
from itertools import accumulate
from operator import mul
from typing import Iterator, Literal, NamedTuple

from .errors import DomainError, ValidityError
from .oracle import check_horizon, check_walk, first_passage_masses

CoefficientMode = Literal["paper", "exact"]

# Bound on the total decimal digits of one series' path counts.  The largest
# admitted series answers in 3-8 s in every format at d = 1, 3, 1000 and 10**6
# (2-CPU VM, Python 3.11).
MAX_SERIES_DIGITS = 65_000_000


def paper_coefficient(d: int, n_gains: int) -> int:
    """Pencil-and-paper path count for the series term with ``n_gains`` gains.

    ``C(d+2N-2, N)`` for ``N < 2``; ``C(d+2N-2, N) - C(2N-2, N)`` for
    ``N >= 2``.  Matches :func:`exact_coefficient` for ``N <= 2`` and
    overcounts from ``N = 3`` on (16 vs 14 at d=2, N=3).
    """
    _check_coefficient_args(d, n_gains)
    # C(-1, 0) = 1 leads the series at d = 1
    count = math.comb(max(d + 2 * n_gains - 2, 0), n_gains)
    if n_gains >= 2:
        count -= math.comb(2 * n_gains - 2, n_gains)
    return count


def exact_coefficient(d: int, n_gains: int) -> int:
    """Number of length ``d + 2N`` gain/loss sequences whose net loss first
    reaches ``d`` on the final step.

    Computed as ``d * C(d+2N, N) / (d+2N)`` (the first-passage identity for
    the +/-1 walk); equals brute-force enumeration over all ``2**(d+2N)``
    sequences.
    """
    _check_coefficient_args(d, n_gains)
    length = d + 2 * n_gains
    numerator = d * math.comb(length, n_gains)
    assert numerator % length == 0
    return numerator // length


class SeriesTerm(NamedTuple):
    """One term of the ruin series: ``probability = path_count * q**(d+N) * p**N``."""

    n_gains: int
    path_count: int
    probability: float
    cumulative: float


class SeriesReport(NamedTuple):
    """Partial sums of the ruin series up to ``truncation`` gains.

    ``cumulative`` is the last term's running sum.  ``tail_bound`` is a
    geometric envelope on the omitted mass, built from the last term and
    the larger of the observed and asymptotic term ratios; it is infinite
    when no geometric envelope exists (ratio >= 1, which happens near
    p = 1/2).  A reporting device, not part of the series itself.
    """

    p_gain: float
    distance: int
    coefficient_mode: CoefficientMode
    truncation: int
    cumulative: float
    tail_bound: float
    terms: tuple[SeriesTerm, ...]


def term_probabilities(
    p: float, d: int, max_gains: int, mode: CoefficientMode = "exact"
) -> Iterator[float]:
    """Terms for ``N = 0 .. max_gains``, with no path count: the kernel's
    first-passage masses, in paper mode each scaled by the count ratio and
    streamed.  The kernel runs at the call, so an input too large for memory
    fails at once.  Arguments are not validated."""
    masses = first_passage_masses(p, d, d + 2 * max_gains)
    return iter(masses) if mode == "exact" else map(mul, masses, _paper_ratios(d, max_gains))


def ruin_series(
    p: float,
    d: int,
    max_gains: int,
    mode: CoefficientMode = "exact",
) -> SeriesReport:
    """Evaluate the ruin series for gain counts ``N = 0 .. max_gains``.

    In ``exact`` mode the cumulative sum at ``N`` is exactly the
    probability of ruin within ``d + 2N`` trials, clamped to 1 as the
    horizon oracle's is.  The terms come from :func:`term_probabilities`.

    The path counts, of ``mode`` only, are exact integers, so their size,
    not the walk, sets the cost.  Before the kernel runs,
    ``(N + 1) * (log10 C(d+2N, N) + 1)`` bounds their total decimal digits
    (no count exceeds ``C(d+2N, N)``); past :data:`MAX_SERIES_DIGITS` a
    :class:`DomainError` names ``max_gains``.  That admits 10390 gains at
    ``d = 3`` and 4860 at ``d = 10**6``.
    """
    _check_series_args(p, d, max_gains, mode)
    digits = _count_digits_bound(d, max_gains)
    if digits > MAX_SERIES_DIGITS:
        raise DomainError(
            f"max_gains={max_gains} at distance {d} needs up to {digits:,.0f} decimal digits "
            f"of path counts, past the limit of {MAX_SERIES_DIGITS:,}; lower max_gains"
        )
    probabilities = list(term_probabilities(p, d, max_gains, mode))
    # accumulate, as the built-in sum of floats is compensated from Python
    # 3.12; only exact mode's sums, of disjoint events, are clamped to 1
    cumulative = accumulate(probabilities)
    if mode == "exact":
        cumulative = (min(total, 1.0) for total in cumulative)
    counts = (_exact_counts if mode == "exact" else _paper_counts)(d, max_gains)
    terms = [SeriesTerm(n, *term) for n, term in enumerate(zip(counts, probabilities, cumulative))]
    return SeriesReport(
        p_gain=p,
        distance=d,
        coefficient_mode=mode,
        truncation=max_gains,
        cumulative=terms[-1].cumulative,
        tail_bound=_geometric_tail_bound(terms, p, 1.0 - p),
        terms=tuple(terms),
    )


def approx_arith_geometric(p: float, d: int) -> float:
    """Arithmetic-geometric surrogate ``q**d / (1 - q*p*d)``.

    Only meaningful while ``q*p*d < 1``; beyond that the geometric
    surrogate diverges and a :class:`ValidityError` is raised.
    """
    q = _check_approx_args(p, d)
    ratio = q * p * d
    if ratio >= 1.0:
        raise ValidityError(
            f"arithmetic-geometric approximation requires q*p*d < 1, "
            f"got {ratio} (p={p}, d={d})"
        )
    return q**d / (1.0 - ratio)


def approx_simplified(p: float, d: int) -> float:
    """Simplified surrogate ``q**d / (1 - q*d)``, for small q and large d.

    Raises :class:`ValidityError` when ``q*d >= 1``; expect that whenever
    ``q >= 1/2`` with ``d >= 2``.
    """
    q = _check_approx_args(p, d)
    ratio = q * d
    if ratio >= 1.0:
        raise ValidityError(
            f"simplified approximation requires q*d < 1, got {ratio} "
            f"(p={p}, d={d})"
        )
    return q**d / (1.0 - ratio)


def paper_final_form(p: float, d: int) -> float:
    """Literal endpoint of the approximation chain: ``(q*p)**d``.

    Provided verbatim for comparison tables.  Note the classical
    infinite-horizon ruin probability is ``(q/p)**d``, not this value; the
    comparison surface reports both rather than guessing which was meant.
    """
    q = _check_approx_args(p, d)
    return (q * p) ** d


def _count_digits_bound(d: int, n: int) -> float:
    """``(n + 1) * (log10 C(d+2n, n) + 1)``: each of the ``n + 1`` counts has
    at most ``log10 C(d+2n, n) + 1`` digits.  The lgamma difference loses
    its digits to rounding as ``d`` nears 2**59, so it is raised by 1e-14 of
    its largest term, more than that rounding error."""
    top = math.lgamma(d + 2 * n + 1)
    log_comb = top - math.lgamma(n + 1) - math.lgamma(d + n + 1) + 1e-14 * top
    return (n + 1) * (log_comb / math.log(10) + 1)


def _exact_counts(d: int, max_gains: int) -> Iterator[int]:
    """``exact_coefficient(d, N)`` for ``N = 0 .. max_gains``, each from the
    last by ``c(N+1) / c(N) = (d+2N)(d+2N+1) / ((N+1)(d+N+1))``."""
    count = 1
    for n in range(max_gains + 1):
        yield count
        length = d + 2 * n
        count = count * length * (length + 1) // ((n + 1) * (d + n + 1))


def _paper_counts(d: int, max_gains: int) -> Iterator[int]:
    """``paper_coefficient(d, N)`` for ``N = 0 .. max_gains``: the runs of
    ``C(d+2N-2, N)`` and, from ``N = 2``, ``C(2N-2, N)``, each term from the
    last by the ratio of consecutive binomials."""
    head, tail = 1, 1
    for n in range(max_gains + 1):
        yield head - tail if n >= 2 else head
        top = d + 2 * n
        # C(-1, 0) = 1 is followed by C(1, 1) = 1 at d = 1
        head = 1 if top == 1 else head * (top - 1) * top // ((n + 1) * (d + n - 1))
        if n >= 2:
            tail = tail * (2 * n - 1) * (2 * n) // ((n + 1) * (n - 1))


def _paper_ratios(d: int, max_gains: int) -> Iterator[float]:
    """``paper_coefficient(d, N) / exact_coefficient(d, N)`` in floats: 1 for
    ``N < 2``, then ``C(d+2N-2, N) / E_N = (d+N)(d+N-1) / (d(d+2N-1))`` less
    ``t_N = C(2N-2, N) / E_N``, from ``t_2 = 2 / (d(d+3))`` by ``t_{N+1} / t_N =
    2N(2N-1)(d+N+1) / ((N-1)(d+2N+1)(d+2N))``.  ``t_N >= 2**-d / 6`` underflows
    only past d = 1000, far below an ulp of the ratio (>= 1)."""
    yield from (1.0, 1.0)[: max_gains + 1]
    t = 2 / (d * (d + 3))
    for n in range(2, max_gains + 1):
        length = d + 2 * n
        yield (d + n) * (d + n - 1) / (d * (length - 1)) - t
        t *= 2 * n * (2 * n - 1) * (d + n + 1) / ((n - 1) * (length + 1) * length)


def _check_series_args(p: float, d: int, max_gains: int, mode: str) -> None:
    check_walk(p, d)
    if max_gains < 0:
        raise DomainError(f"max_gains must be >= 0, got {max_gains}")
    check_horizon(d + 2 * max_gains, "distance + 2 * max_gains")
    if mode not in ("paper", "exact"):
        raise DomainError(f"mode must be 'paper' or 'exact', got {mode!r}")


def _check_coefficient_args(d: int, n_gains: int) -> None:
    if d < 1:
        raise DomainError(f"distance must be >= 1, got {d}")
    if n_gains < 0:
        raise DomainError(f"gain count must be >= 0, got {n_gains}")


def _check_approx_args(p: float, d: int) -> float:
    check_walk(p, d)
    return 1.0 - p


def _geometric_tail_bound(terms: list[SeriesTerm], p: float, q: float) -> float:
    """Geometric envelope of the omitted mass.

    Extrapolates from the ratio of the last two terms, floored at the
    asymptotic per-term ratio ``4*p*q`` (path counts grow at most 4x per
    unit of extra length while each additional gain contributes one factor
    of ``p`` and one of ``q``), so past the early transient this bounds the
    true tail from above.  Infinite when the ratio reaches 1 (near
    ``p = 1/2`` the tail has no geometric envelope) or when a single term
    gives nothing to extrapolate from.
    """
    last = terms[-1].probability
    if last == 0.0 or p == 0.0 or p == 1.0:
        return 0.0
    if len(terms) < 2 or terms[-2].probability == 0.0:
        return math.inf
    ratio = max(last / terms[-2].probability, 4.0 * p * q)
    if ratio >= 1.0:
        return math.inf
    return last * ratio / (1.0 - ratio)
