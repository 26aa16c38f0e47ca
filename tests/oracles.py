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
