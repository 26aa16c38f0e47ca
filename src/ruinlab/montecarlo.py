"""Reproducible Monte Carlo simulation of the multiplicative ruin process.

The engine walks the integer net-loss lattice (one loss moves one step
toward the barrier, one gain moves one step away) because integers are
exact.

Reproducibility is a contract, not best effort: trials are processed in
fixed-size batches and batch ``b`` draws from a counter-based Philox stream
keyed by ``(seed, b)``, so a run is bit-identical for a fixed seed no
matter how many workers execute it or how batches are scheduled.

Within a batch every trial keeps its own clock and its own gap, the net
losses it still needs to ruin.  Engine 0.3 moves a trial in one of two ways
on each pass, and each pass draws its bits from the batch stream in this
order:

* **Bridge blocks** (gap above ``_BLOCK_MIN_GAP``).  A trial takes a block
  of ``m`` steps: one ``Generator.binomial(m, q)`` draw gives its losses
  ``k``.  Given ``k`` every arrangement of the block is equally likely, so
  whether the path touched the barrier does not depend on p.  When
  ``k >= gap`` one ``Generator.random`` double ``u`` follows: the block
  crossed when ``u`` is below the reflection probability
  ``C(m, k - gap) / C(m, k)`` (1 when the net loss ``2k - m`` reaches the
  gap), and then the same ``u`` picks the ruin step from the bridge's
  ballot law by inverse CDF.  Blocks are sized so that crossings stay rare
  (``_block_lengths``) and never pass the trial's horizon; a block shorter
  than the gap cannot cross and draws only the binomial.
* **Byte steps** (the other trials).  Each step cell takes one byte of a
  raw 64-bit Philox word (``random_raw``, bytes in little-endian order):
  a byte below ``floor(256 p)`` is a gain, above it a loss, and on a tie a
  ``Generator.random`` double decides, drawn in row-major cell order after
  the chunk's bytes.  That is ``Bernoulli(p)`` to 2**-53, at a byte per
  cell instead of a double.  First passage is found exactly, eight steps
  at a time.

A trial retires when it ruins or when its gap exceeds the steps it has
left, so it is censored as soon as ruin within the horizon is impossible.
0.2.0 results are not reproduced: the same seed feeds different bits to
each trial.
"""
from __future__ import annotations

import math
import os
from collections import Counter
from contextlib import nullcontext
from functools import partial, reduce
from operator import add
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, ValidityError
# not called here: the benchmark's tracer wraps the name montecarlo.calibrate
from .model import calibrate  # noqa: F401
from .oracle import (
    check_horizon,
    check_walk,
    ruin_probability_dp,
    ruin_probability_closed_form,
    expected_time_classical,
    expected_time_paper,
)
from .series import approx_arith_geometric, approx_simplified, paper_final_form, term_probabilities
# not called here: the benchmark's tracer wraps the name montecarlo.ruin_series
from .series import ruin_series  # noqa: F401

# Trials per RNG substream. Part of the reproducibility contract: changing
# it changes which bits each trial sees.
BATCH_TRIALS = 8192

# Step chunks are multiples of 8 steps: one packed byte of gain/loss bits.
_CHUNK_START = 16
_CHUNK_MAX = 256
# Trials farther than this from the barrier take bridge blocks; nearer
# ones step.  On the mc_survive commands 8, 12 and 16 are equally fast
# within noise.
_BLOCK_MIN_GAP = 16
# Block lengths.  A block spans at most gap**2 // _DIFFUSION_SPAN steps, so
# it crosses with probability about 2 Phi(-3) = 0.3% at p = 1/2; when the
# walk drifts toward the barrier, at most _DRIFT_SPAN * gap / (q - p)
# steps, so the drift covers half the gap.  When the walk drifts away and
# would ever reach the barrier with probability (q/p)**gap below
# 2**-_SAFE_BITS, a block runs to the table size or the horizon.
_DIFFUSION_SPAN = 9
_DRIFT_SPAN = 0.5
_SAFE_BITS = 10
# A block that can cross spans at most this many steps, so the crossing
# and ballot laws read ln n! from a table of _BRIDGE_MAX + 1 entries built
# at import; a longer block is one shorter than the gap.
_BRIDGE_MAX = 2**16
# Ballot masses held at once by all crossed trials of a pass (8 bytes each).
_BALLOT_CELLS = 2**18

# Seconds a pool of k processes costs before it saves any: _POOL_START_S +
# k * _POOL_PROCESS_S.  On a 2-CPU VM (Python 3.11.7, numpy 2.4.6), fresh
# processes, medians of 9: importing concurrent.futures.process takes
# 16-24 ms; then starting, feeding and joining k processes for k tiny
# batches cost 21, 33 and 72 ms more than in process at k = 2, 4 and 8.
_POOL_START_S = 0.03
_POOL_PROCESS_S = 0.01

_MAX_SEED = 2**64 - 1
# Positions and clocks are int64; below this no block sum can overflow.
_MAX_STEPS = 2**62

ProgressCallback = Callable[[int, int], None]


class _SimConfigFields(NamedTuple):
    p: float
    distance: int
    trials: int
    max_steps: int
    seed: int
    workers: int | None = None


class SimConfig(_SimConfigFields):
    """Monte Carlo run parameters for the lattice walk (p, distance).

    ``workers`` caps the processes a run may use (``None``: one per CPU);
    it changes wall-clock time only, never the result.  Whether a pool
    starts, and its size, ``simulate`` decides from the first batch's time.
    Construction, ``_make``, ``_replace`` and unpickling (a pool worker's
    copy) all validate.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs) -> SimConfig:
        self = super().__new__(cls, *args, **kwargs)
        check_walk(self.p, self.distance)
        if self.distance % 1:  # a fractional barrier would act as its ceiling
            raise DomainError(f"distance must be an integer, got {self.distance}")
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if self.trials > _MAX_STEPS:
            raise DomainError(f"trials must be <= 2**62, got {self.trials}")
        if self.max_steps > _MAX_STEPS:
            raise DomainError(f"max_steps must be <= 2**62, got {self.max_steps}")
        if self.distance > _MAX_STEPS:
            raise DomainError(
                f"distance must be <= 2**62, the largest max_steps, got {self.distance}"
            )
        if self.max_steps < self.distance:
            raise DomainError(
                f"max_steps must be >= distance {self.distance}, "
                f"got {self.max_steps}"
            )
        if not 0 <= self.seed <= _MAX_SEED:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.workers is not None and self.workers < 1:
            raise DomainError(f"workers must be >= 1, got {self.workers}")
        return self

    @classmethod
    def for_lattice(
        cls, p: float, d: int, trials: int, max_steps: int, seed: int, workers: int | None = None
    ) -> SimConfig:
        """The plain constructor under its old name, kept only because the
        benchmark's probes (``bench/tracing.py``) still call it."""
        return cls(p, d, trials, max_steps, seed, workers)


class SimResult(NamedTuple):
    """Aggregate outcome of a simulation run.

    ``ruined + censored == trials``; ``stderr`` is the binomial standard
    error of ``ruin_frequency``; ``mean_time_to_ruin`` averages ruined
    trials only (NaN when nothing ruined).  ``time_histogram`` is a sparse
    ``{step: count}`` map of ints in step order, ready for JSON: ruin times
    share the parity of the distance and cluster near it.
    """

    ruined: int
    censored: int
    ruin_frequency: float
    stderr: float
    mean_time_to_ruin: float
    time_histogram: dict[int, int]
    seed_echo: int


def simulate(config: SimConfig, progress: ProgressCallback | None = None) -> SimResult:
    """Run the lattice simulation described by ``config``.

    Deterministic for a fixed seed: batches are merged in index order and
    all aggregates are integers until the final divisions.  Batch 0 runs
    here and is timed; batches are identically distributed, so it predicts
    the rest.  The rest go to a pool of one process per batch left and per
    CPU, and at most ``workers``, only when that saves more than the pool
    costs; else they run here too.
    """
    n = -(-config.trials // BATCH_TRIALS)
    start = perf_counter()
    histogram: Counter[int] = Counter(_run_batch(config, 0))
    first = perf_counter() - start
    if progress is not None:
        progress(1, n)
    rest = n - 1
    # a fork-started pool launches all its workers at the first submit
    pool_size = max(1, min(config.workers or rest, rest, os.cpu_count() or 1))
    pool, run = nullcontext(), map
    # whole batches: pool_size processes take ceil(rest / pool_size) batch
    # times, so a pool of one saves nothing
    saved = (rest - -(-rest // pool_size)) * first
    if saved > _POOL_START_S + pool_size * _POOL_PROCESS_S:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=pool_size)
        run = partial(pool.map, chunksize=max(1, rest // (pool_size * 4)))
    with pool:
        for done, batch_hist in enumerate(run(partial(_run_batch, config), range(1, n)), 2):
            histogram.update(batch_hist)
            if progress is not None:
                progress(done, n)
    ruined = sum(histogram.values())
    time_sum = sum(t * c for t, c in histogram.items())

    censored = config.trials - ruined
    frequency = ruined / config.trials
    stderr = math.sqrt(frequency * (1.0 - frequency) / config.trials)
    mean_time = time_sum / ruined if ruined else math.nan
    return SimResult(
        ruined=ruined,
        censored=censored,
        ruin_frequency=frequency,
        stderr=stderr,
        mean_time_to_ruin=mean_time,
        time_histogram=dict(sorted(histogram.items())),
        seed_echo=config.seed,
    )


def engine_record() -> dict:
    """What a fixed-seed result depends on beyond the run parameters.

    Under numpy's RNG policy (NEP 19) the streams of ``Generator.random``
    and ``Generator.binomial`` may change between numpy releases.
    """
    return {
        "algorithm": "bridge blocks + byte steps (engine 0.3)",
        "bit_generator": "Philox",
        "batch_trials": BATCH_TRIALS,
        "numpy": np.__version__,
    }


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    key = np.array([seed, batch_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _run_batch(config: SimConfig, batch_index: int) -> dict[int, int]:
    """Simulate one batch; returns its ruin-time histogram ``{step: count}``.

    The batch's bits depend on this order: each pass bridges the far trials,
    if any, then steps the near ones one chunk, if any, and the survivors
    enter the next pass far trials first.  The chunk doubles on each pass
    that steps, up to ``_CHUNK_MAX``."""
    p, max_steps = config.p, config.max_steps
    size = min(BATCH_TRIALS, config.trials - batch_index * BATCH_TRIALS)
    rng = _batch_rng(config.seed, batch_index)
    gap = np.full(size, config.distance, dtype=np.int64)
    t = np.zeros(size, dtype=np.int64)
    chunk = _CHUNK_START
    # passes without a ruin, nearly all of a long run's, keep no array
    ruin_times = [np.zeros(0, dtype=np.int64)]

    while gap.size:
        far = gap > _BLOCK_MIN_GAP
        moved = [_bridge(rng, p, max_steps, gap[far], t[far])] if far.any() else []
        if not far.all():
            moved.append(_step(rng, p, max_steps, gap[~far], t[~far], chunk))
            chunk = min(2 * chunk, _CHUNK_MAX)
        gap, t, times = (np.concatenate(parts) for parts in zip(*moved))
        if times.size:
            ruin_times.append(times)

    steps, counts = np.unique(np.concatenate(ruin_times), return_counts=True)
    return dict(zip(steps.tolist(), counts.tolist()))


def _bridge(
    rng: np.random.Generator, p: float, max_steps: int, gap: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance each far trial by one bridge block.  Returns the trials that
    can still ruin and the ruin times of those that crossed."""
    m = _block_lengths(p, max_steps - t, gap)
    k = rng.binomial(m, 1.0 - p)
    t_next = t + m
    # a block with fewer losses than the gap cannot reach the barrier
    maybe = np.flatnonzero(k >= gap)
    u = rng.random(maybe.size)  # no bits are drawn when no block can cross
    g, n, x = gap[maybe], m[maybe], k[maybe]
    hit = u < _crossing(g, n, x)
    rows = maybe[hit]
    times = t[rows] + _ballot_steps(g[hit], n[hit], x[hit], u[hit])
    gap = gap - (2 * k - m)  # 2k - m: net losses over the block
    live = gap <= max_steps - t_next
    live[rows] = False
    return gap[live], t_next[live], times


def _block_lengths(p: float, remaining: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """Block length of each far trial: long enough that the binomial draw
    is worth it, short enough that crossings stay rare, and never past the
    trial's horizon.  A block that can cross spans at most ``_BRIDGE_MAX``
    steps; past that a block of ``gap - 1`` steps, which cannot cross,
    keeps far trials moving at any horizon."""
    span = np.minimum(gap, _BRIDGE_MAX)
    length = span * span // _DIFFUSION_SPAN
    q = 1.0 - p
    if q > p:
        length = np.minimum(length, span * (_DRIFT_SPAN / (q - p)))
    elif p > q:
        safe = gap * (math.log2(p / q) if q else math.inf) >= _SAFE_BITS
        length = np.where(safe, _BRIDGE_MAX, length)
    length = np.minimum(length, _BRIDGE_MAX).astype(np.int64)
    return np.minimum(remaining, np.maximum(gap - 1, length))


def _crossing(g: np.ndarray, m: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Probability that a block of ``m`` steps with ``k >= g`` losses, from
    gap ``g``, touches the barrier: 1 when its net loss ``2k - m`` reaches
    ``g``, else ``C(m, k - g) / C(m, k)`` by reflection (the arrangements
    that touch map one to one onto those that end at ``2g - (2k - m)``).

    The ratio is the exponential of four log-factorial entries, so it
    carries a relative error of about 1e-9 at most, a bias that only some
    1e18 trials could resolve."""
    lf = _LOG_FACTORIALS
    log_touch = np.minimum(lf[k] + lf[m - k] - lf[k - g] - lf[m - k + g], 0.0)
    return np.where(2 * k - m >= g, 1.0, np.exp(log_touch))


def _ballot_steps(g: np.ndarray, m: np.ndarray, k: np.ndarray, u: np.ndarray) -> np.ndarray:
    """First-passage step of each crossed block, by inverse CDF at ``u``.

    A block of ``m`` steps with ``k`` losses, from gap ``g``, first reaches
    the barrier at step ``j = g + 2r`` with probability (ballot theorem)
    ``(g/j) C(j, g + r) C(m - j, k - g - r) / C(m, k)``; these sum to the
    crossing probability, so ``u`` below it is a uniform draw of the CDF.
    The masses are scanned in windows that double, so a trial costs about
    its own ``r`` in table lookups, up to ``_BALLOT_CELLS`` masses a window."""
    lf = _LOG_FACTORIALS
    out = np.empty(g.size, dtype=np.int64)
    rows = np.arange(g.size)
    last = np.minimum(np.minimum(k - g, m - k), (m - g) // 2)  # largest r with mass
    log_total = lf[m] - lf[k] - lf[m - k]
    below = np.zeros(g.size)  # CDF before the window
    start, width = 0, 8
    while rows.size:
        r = start + np.arange(width)
        inside = r <= last[:, None]
        r = np.minimum(r, last[:, None])
        gg, mm, kk = g[:, None], m[:, None], k[:, None]
        j = gg + 2 * r
        log_w = (np.log(gg / j) + lf[j] - lf[gg + r] - lf[r]
                 + lf[mm - j] - lf[kk - gg - r] - lf[mm - kk - r] - log_total[:, None])
        cdf = below[:, None] + np.cumsum(np.where(inside, np.exp(log_w), 0.0), axis=1)
        reached = cdf[:, -1] > u
        done = reached | (start + width > last)
        # rounding can leave the last CDF value a hair under u: take the last step
        first = np.where(reached, start + np.argmax(cdf > u[:, None], axis=1), last)
        out[rows[done]] = (g + 2 * first)[done]
        keep = ~done
        rows, g, m, k, u, last, log_total = (
            a[keep] for a in (rows, g, m, k, u, last, log_total))
        below = cdf[keep, -1]
        start += width
        width = min(2 * width, max(8, _BALLOT_CELLS // max(rows.size, 1)))
    return out


def _log_factorial_table() -> np.ndarray:
    """ln n! for n = 0 .. ``_BRIDGE_MAX``, the longest block that can cross:
    ``math.lgamma`` below 32, Stirling's series with four terms above, each
    entry within two ulps (2.5e-10) of ln n!."""
    x = np.arange(1.0, _BRIDGE_MAX + 2.0)  # n + 1
    r = 1.0 / x
    r2 = r * r
    table = ((x - 0.5) * np.log(x) - x + 0.5 * math.log(2.0 * math.pi)
             + r * (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 / 1680))))
    table[:32] = [math.lgamma(n + 1.0) for n in range(32)]
    return table


_LOG_FACTORIALS = _log_factorial_table()


def _losses(rng: np.random.Generator, p: float, cells: int) -> np.ndarray:
    """One loss flag per step cell, drawn at a byte per cell.

    The cell's byte ``b`` of a raw Philox word is a gain when below
    ``cut = floor(256 p)`` and a loss when above it; on a tie a double
    ``u`` in [0, 1) makes it a gain when ``u < 256 p - cut``.  Both ``256 p``
    and that difference are exact, so P(gain) = cut/256 + P(u < 256 p - cut)/256
    equals p to 2**-53.  ``cells`` is a multiple of 8."""
    cut = math.floor(256.0 * p)
    raw = rng.bit_generator.random_raw(cells // 8).astype("<u8", copy=False)
    bytes_ = raw.view(np.uint8)
    loss = bytes_ > cut
    ties = np.flatnonzero(bytes_ == cut)
    loss[ties] = rng.random(ties.size) >= 256.0 * p - cut
    return loss


def _pattern_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tables over the 256 patterns of 8 steps, first step in the high bit
    and 1 a loss: net losses, the peak of the running net loss, and the
    first step (0-7) at which the running net loss reaches h = 0..8 (8 when
    it never does)."""
    bits = (np.arange(256)[:, None] >> np.arange(7, -1, -1)) & 1
    walk = np.cumsum(2 * bits - 1, axis=1)
    reach = walk[:, :, None] >= np.arange(9)
    first = np.where(reach.any(axis=1), np.argmax(reach, axis=1), 8)
    return walk[:, -1].astype(np.int16), walk.max(axis=1).astype(np.int16), first


_NET, _PEAK, _FIRST = _pattern_tables()


def _step(
    rng: np.random.Generator,
    p: float,
    max_steps: int,
    gap: np.ndarray,
    t: np.ndarray,
    chunk: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk near trials up to ``chunk`` steps with exact first-passage
    detection.  Returns the trials that can still ruin and the ruin times
    of those that did.

    The chunk is rounded up to whole bytes of 8 steps; a trial whose
    horizon falls inside it is retired at the end of the pass either way."""
    n = gap.size
    remaining = max_steps - t
    steps = min(chunk, -(-int(remaining.max()) // 8) * 8)
    # row-major: trial i owns cells [i*steps, (i+1)*steps); eight cells
    # make one pattern byte, first step in the high bit
    groups = np.packbits(_losses(rng, p, n * steps)).reshape(n, steps // 8)
    net = _NET[groups]
    walk = np.cumsum(net, axis=1, dtype=np.int16)  # net losses after each byte
    need = gap.astype(np.int16)[:, None] - (walk - net)  # still needed at its start
    hit = _PEAK[groups] >= need
    byte = np.argmax(hit, axis=1)  # first byte that reaches the barrier, if any
    at = byte + np.arange(0, groups.size, groups.shape[1])  # its flat index
    crossed = hit.ravel()[at]
    first = 8 * byte + _FIRST[groups.ravel()[at], np.minimum(need.ravel()[at], 8)]
    ruined = crossed & (first < remaining)
    gap = gap - walk[:, -1]
    t = t + steps
    live = ~crossed & (gap <= max_steps - t)
    return gap[live], t[live], t[ruined] - steps + 1 + first[ruined]


class MethodEstimate(NamedTuple):
    """One method's estimate next to the DP reference."""

    method: str
    value: float | None
    valid: bool
    note: str
    abs_dev_from_dp: float | None


class MethodComparison(NamedTuple):
    """Aligned ruin-probability and expected-time estimates.

    The ``dp`` and ``dp_censored_mean`` rows are the references: the DP at
    ``dp_horizon``, the simulation's ``max_steps``, which the simulation and
    the series row share.  Every other row carries its absolute deviation
    from them.  Approximations evaluated outside their validity region, and
    ruin probabilities outside [0, 1], are flagged invalid, not raised.
    """

    p_gain: float
    distance: int
    dp_horizon: int
    ruin_estimates: tuple[MethodEstimate, ...]
    time_estimates: tuple[MethodEstimate, ...]
    simulation: SimResult


def compare_methods(
    config: SimConfig, progress: ProgressCallback | None = None
) -> MethodComparison:
    """Line up every estimator of the (p, d) ruin problem in one table, the
    DP and the paper-count series at the simulation's ``max_steps``.  The
    series is :func:`term_probabilities` summed as it streams: no count, no
    digit cap.  At one horizon the exact-count series is the DP: no row."""
    p, d, horizon = config.p, config.distance, config.max_steps
    # the kernel's bound names the flag at fault: the distance first
    check_horizon(d, "distance")
    check_horizon(horizon, "max_steps")
    reference = ruin_probability_dp(p, d, horizon)
    ruin_ref = reference.ruin_probability_within_horizon
    gains = (horizon - d) // 2
    # before the simulation, which a too large input must not reach; summed
    # left to right, as ruin_series sums
    paper = reduce(add, term_probabilities(p, d, gains, "paper"))
    sim = simulate(config, progress=progress)

    ruin_rows = [
        MethodEstimate("dp", ruin_ref, True, f"reference, horizon={horizon}", 0.0),
        _estimate("series_paper", lambda: paper, ruin_ref,
                  f"paper count, cumulative at max_gains={gains}"),
        _estimate("approx_arith_geometric", lambda: approx_arith_geometric(p, d), ruin_ref),
        _estimate("approx_simplified", lambda: approx_simplified(p, d), ruin_ref),
        _estimate("paper_final_form", lambda: paper_final_form(p, d), ruin_ref),
        _estimate("closed_form_classical", lambda: ruin_probability_closed_form(p, d), ruin_ref),
        _estimate(
            "monte_carlo",
            lambda: sim.ruin_frequency,
            ruin_ref,
            f"trials={config.trials}, max_steps={config.max_steps}, "
            f"seed={config.seed}, stderr={sim.stderr:.3e}",
        ),
    ]

    time_ref = reference.expected_time_censored
    time_rows = [
        # valid even without ruin mass (p = 1): the reference is then undefined
        MethodEstimate(
            "dp_censored_mean",
            None if math.isnan(time_ref) else time_ref,
            True,
            f"reference, horizon={horizon}",
            0.0 if not math.isnan(time_ref) else None,
        ),
        _estimate("paper_estimator", lambda: expected_time_paper(p, d), time_ref),
        _estimate("classical_drift", lambda: expected_time_classical(p, d), time_ref,
                  "mean given ruin"),
        _estimate("monte_carlo_censored_mean", lambda: sim.mean_time_to_ruin, time_ref,
                  f"over {sim.ruined} ruined trials"),
    ]

    return MethodComparison(
        p_gain=p,
        distance=d,
        dp_horizon=horizon,
        ruin_estimates=tuple(_as_probability(row) for row in ruin_rows),
        time_estimates=tuple(time_rows),
        simulation=sim,
    )


def _as_probability(row: MethodEstimate) -> MethodEstimate:
    """A ruin-probability row outside [0, 1] is invalid; its value stays."""
    if row.value is None or 0.0 <= row.value <= 1.0:
        return row
    return row._replace(valid=False, note="; ".join(filter(None, ("outside [0, 1]", row.note))))


def _estimate(
    method: str, compute: Callable[[], float], reference: float, note: str = ""
) -> MethodEstimate:
    """One method's row next to ``reference``.  An approximation outside its
    region or an undefined value gives an invalid row, a divergent value a
    valid row without a value; no deviation is given from a NaN reference."""
    try:
        value = compute()
    except ValidityError as exc:
        return MethodEstimate(method, None, False, f"outside validity: {exc}", None)
    except DomainError:
        return MethodEstimate(method, None, False, "undefined here", None)
    if math.isnan(value):
        return MethodEstimate(method, None, False, note or "undefined here", None)
    if math.isinf(value):
        return MethodEstimate(method, None, True, "divergent: mean infinite at p = 1/2", None)
    dev = None if math.isnan(reference) else abs(value - reference)
    return MethodEstimate(method, value, True, note, dev)
