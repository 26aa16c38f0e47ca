"""Independent brute-force oracles used only by the test suite.

Everything here is deliberately naive: exhaustive enumeration, exact
rational arithmetic and a step-by-step dynamic program, with no shared
code paths into the package under test.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, Sequence

import numpy as np

GAIN = 1
LOSS = -1


def enumerate_first_passage_paths(d: int, n_gains: int) -> list[tuple[int, ...]]:
    """All gain/loss sequences of length d + 2*n_gains whose running net
    position first reaches -d on the final step."""
    length = d + 2 * n_gains
    paths = []
    for steps in product((GAIN, LOSS), repeat=length):
        position = 0
        first_hit = None
        for i, step in enumerate(steps):
            position += step
            if position == -d:
                first_hit = i + 1
                break
        if first_hit == length:
            paths.append(steps)
    return paths


def first_passage_count(d: int, n_gains: int) -> int:
    return len(enumerate_first_passage_paths(d, n_gains))


def ruin_probability_by_enumeration(p: Fraction, d: int, horizon: int) -> Fraction:
    """Exact probability that the walk hits -d within ``horizon`` steps,
    by summing path probabilities over all 2**horizon full-length
    sequences."""
    q = 1 - p
    total = Fraction(0)
    for steps in product((GAIN, LOSS), repeat=horizon):
        position = 0
        for step in steps:
            position += step
            if position == -d:
                gains = sum(1 for s in steps if s == GAIN)
                total += p**gains * q ** (horizon - gains)
                break
    return total


def ruin_time_distribution_by_enumeration(
    p: Fraction, d: int, horizon: int
) -> dict[int, Fraction]:
    """Exact map of first-passage step -> probability mass, within horizon."""
    q = 1 - p
    masses: dict[int, Fraction] = {}
    for steps in product((GAIN, LOSS), repeat=horizon):
        position = 0
        for i, step in enumerate(steps):
            position += step
            if position == -d:
                gains = sum(1 for s in steps if s == GAIN)
                prob = p**gains * q ** (horizon - gains)
                masses[i + 1] = masses.get(i + 1, Fraction(0)) + prob
                break
    return masses


def series_cumulative_by_rational_sum(
    p: Fraction, d: int, max_gains: int, counts: list[int]
) -> Fraction:
    """Exact rational partial sum of the series given precomputed counts."""
    q = 1 - p
    total = Fraction(0)
    for n_gains in range(max_gains + 1):
        total += counts[n_gains] * q ** (d + n_gains) * p**n_gains
    return total


def bridge_first_passage_by_enumeration(m: int, k: int, g: int) -> dict[int, Fraction]:
    """Exact law of the first step at which a block of ``m`` steps with
    exactly ``k`` losses, every arrangement equally likely, brings its net
    losses up to ``g``: ``{step: probability}``.  The masses sum to the
    chance that the block touches ``g`` at all."""
    arrangements = list(combinations(range(m), k))
    weight = Fraction(1, len(arrangements))
    masses: dict[int, Fraction] = {}
    for losses in arrangements:
        position = 0
        for step in range(m):
            position += LOSS if step in losses else GAIN
            if position == -g:
                masses[step + 1] = masses.get(step + 1, Fraction(0)) + weight
                break
    return masses


def gain_probability_on_double_grid(decide: Callable[[float], Sequence[bool]]) -> Fraction:
    """Exact P(gain) of a one-step rule that reads a byte ``b`` uniform on
    0..255 and, for some bytes, a double ``u`` uniform on the 53-bit grid
    ``i / 2**53`` (numpy's ``Generator.random``).

    ``decide(u)`` gives the 256 gain flags at ``u``, each non-increasing in
    ``u``; a byte whose flag depends on ``u`` is resolved by bisection."""
    low, high = decide(0.0), decide(1.0 - 2.0**-53)
    total = Fraction(0)
    for b in range(256):
        if low[b] == high[b]:
            total += Fraction(int(low[b]), 256)
            continue
        gain, loss = 0, 2**53 - 1  # grid indices known to give a gain, a loss
        while loss - gain > 1:
            mid = (gain + loss) // 2
            if decide(mid * 2.0**-53)[b]:
                gain = mid
            else:
                loss = mid
        total += Fraction(gain + 1, 2**53 * 256)
    return total


def time_stats(histogram: dict[int, int]) -> tuple[float, float]:
    """(mean, sample standard deviation) of the ruin times in a
    ``{step: count}`` histogram, computed exactly from the integers."""
    n = sum(histogram.values())
    if n == 0:
        return math.nan, math.nan
    total = sum(t * c for t, c in histogram.items())
    total_sq = sum(t * t * c for t, c in histogram.items())
    mean = total / n
    if n == 1:
        return mean, 0.0
    var = (total_sq - n * mean * mean) / (n - 1)
    return mean, math.sqrt(max(var, 0.0))


# Trials per (seed, batch) Philox stream, as in the simulation engine.
_BATCH_TRIALS = 8192


def bankroll_lattice_crosscheck(
    model, loss_level: float, distance: int, trials: int, max_steps: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Run paired walks on shared random bits and return both ruin steps.

    ``model`` carries ``p_gain``, ``gain_factor`` and ``loss_factor``.  For
    each trial the same gain/loss sequence drives (a) the integer lattice
    walk ruined when net losses reach ``distance``, the distance calibrated
    for ``loss_level``, and (b) a floating-point bankroll multiplied by
    ``1 + gain_factor`` or ``1 + loss_factor`` and ruined when it falls to
    ``loss_level`` or below.  Batch ``b`` of 8192 trials draws one double
    per step from the Philox stream keyed by ``(seed, b)``.  Returns
    ``(lattice_steps, bankroll_steps)`` with -1 marking a censored trial.
    With power-of-two move factors the bankroll stays exactly
    representable, so the two walks must agree step for step.
    """
    up = 1.0 + model.gain_factor
    down = 1.0 + model.loss_factor
    lattice_steps = np.full(trials, -1, dtype=np.int64)
    bankroll_steps = np.full(trials, -1, dtype=np.int64)

    for batch_index, start in enumerate(range(0, trials, _BATCH_TRIALS)):
        key = np.array([seed, batch_index], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        size = min(_BATCH_TRIALS, trials - start)
        idx = np.arange(start, start + size)
        pos = np.zeros(size, dtype=np.int64)
        bankroll = np.ones(size)
        lattice_active = np.ones(size, dtype=bool)
        bankroll_active = np.ones(size, dtype=bool)
        for t in range(1, max_steps + 1):
            gains = rng.random(size) < model.p_gain
            pos += np.where(gains, 1, -1)
            np.multiply(bankroll, np.where(gains, up, down), out=bankroll)
            lattice_hit = lattice_active & (pos <= -distance)
            bankroll_hit = bankroll_active & (bankroll <= loss_level)
            lattice_steps[idx[lattice_hit]] = t
            bankroll_steps[idx[bankroll_hit]] = t
            lattice_active &= ~lattice_hit
            bankroll_active &= ~bankroll_hit
            if not lattice_active.any() and not bankroll_active.any():
                break

    return lattice_steps, bankroll_steps


def first_passage_masses_reference(p: float, d: int, horizon: int) -> list[float]:
    """First-passage masses ``f(d + 2N)``, ``N = 0 .. (horizon - d) // 2``,
    one factor at a time in plain floats.

    The target is the package kernel's bits, not just its values: ``d``
    factors of ``q``, then the ratios ``(d+2N)(d+2N+1) / ((N+1)(d+N+1)) * p * q``
    in the same operation order.  Each factor splits by ``math.frexp``
    into a mantissa and a power of two; the mantissas multiply in runs of
    1000, each run's products scaled by the previous run's last product
    (its mantissa and power kept apart), and ``math.ldexp`` puts the
    summed powers back."""
    q = 1.0 - p
    factors = [q] * d
    for n in range((horizon - d) // 2):
        length = d + 2.0 * n
        factors.append(length * (length + 1.0) / ((n + 1.0) * (d + n + 1.0)) * p * q)
    masses = []
    exponent, scale, shift = 0, 1.0, 0
    for start in range(0, len(factors), 1000):
        product = 1.0
        for factor in factors[start : start + 1000]:
            mantissa, power = math.frexp(factor)
            product *= mantissa
            exponent += power
            masses.append(math.ldexp(product * scale, exponent + shift))
        scale, rescale = math.frexp(product * scale)
        shift += rescale
    return masses[d - 1 :]


def survival_at_half_by_reflection(d: int, horizon: int) -> Fraction:
    """Exact probability that the fair walk (p = 1/2) has not hit -d within
    ``horizon`` steps, from the reflection principle alone.

    The walk survives exactly when its net loss after the horizon lies in
    ``[-d, d - 1]``: ``d`` gain counts ``k``, each of probability
    ``C(horizon, k) / 2**horizon``.  The binomials step from the first by
    ``C(H, k+1) = C(H, k) * (H - k) / (k + 1)``, exactly in integers."""
    k = (horizon - d + 2) // 2  # fewest gains that keep the net loss below d
    total = term = math.comb(horizon, k)
    for k in range(k, k + d - 1):
        term = term * (horizon - k) // (k + 1)
        total += term
    return Fraction(total, 2**horizon)


# The surviving mass of a +/-1 walk spreads like sqrt(t); tracking this
# many standard deviations above the start keeps truncation leakage far
# below double-precision noise while the state stays O(sqrt(horizon)).
_BAND_SIGMAS = 8.0

# Mass below this is periodically flushed to exact zero: it cannot move any
# result by more than ~1e-270, and letting it decay further would fill the
# state with subnormal floats, which are orders of magnitude slower.
_FLUSH_THRESHOLD = 1e-280
_FLUSH_EVERY = 64


def ruin_by_step_dp(p: float, d: int, horizon: int):
    """Forward dynamic program over the net-loss walk, one step at a time.

    Returns ``(ruin, censored_mean, survival, {step: absorbed mass})``.
    Absorbed mass and the time sum use compensated (Kahan) summation; the
    band of tracked positions saturates ``~8 * sqrt(horizon)`` above the
    start, so a little mass can leak onto steps of the wrong parity.
    """
    q = 1.0 - p
    # tracked positions -(d-1) .. top, index j = position + d - 1;
    # absorption happens on a loss from j = 0
    top = min(horizon, max(64, math.ceil(_BAND_SIGMAS * math.sqrt(horizon))))
    m = top + d
    state = np.zeros(m)
    state[d - 1] = 1.0
    nxt = np.zeros(m)
    buf = np.zeros(m)

    ruin = _Kahan()
    time_sum = _Kahan()
    distribution = {}
    for t in range(1, horizon + 1):
        absorbed = float(q * state[0])
        if absorbed != 0.0:
            ruin.add(absorbed)
            time_sum.add(t * absorbed)
            distribution[t] = absorbed
        live = min(m, d + t)  # highest reachable index after t steps, plus one
        np.multiply(state[0 : live - 1], p, out=nxt[1:live])
        nxt[0] = 0.0
        if live == m:
            nxt[m - 1] += p * state[m - 1]  # band top saturates
        np.multiply(state[1:live], q, out=buf[0 : live - 1])
        nxt[0 : live - 1] += buf[0 : live - 1]
        state, nxt = nxt, state
        if t % _FLUSH_EVERY == 0:
            state[state < _FLUSH_THRESHOLD] = 0.0

    mean = time_sum.total / ruin.total if ruin.total > 0.0 else math.nan
    return ruin.total, mean, float(np.sum(state)), distribution


class _Kahan:
    """Compensated scalar accumulator."""

    __slots__ = ("total", "_c")

    def __init__(self) -> None:
        self.total = 0.0
        self._c = 0.0

    def add(self, value: float) -> None:
        y = value - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t
