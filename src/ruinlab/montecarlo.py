"""Reproducible Monte Carlo simulation of the multiplicative ruin process.

The canonical engine walks the integer net-loss lattice (one loss moves one
step toward the barrier, one gain moves one step away) because integers are
exact; a bankroll-scale walk exists only as a cross-check mode.

Reproducibility is a contract, not best effort: trials are processed in
fixed-size batches and batch ``b`` draws from a counter-based Philox stream
keyed by ``(seed, b)``, so a run is bit-identical for a fixed seed no
matter how many workers execute it or how batches are scheduled.

Within a batch every trial keeps its own clock and its own gap, the net
losses it still needs to ruin.  On the +/-1 lattice a trial ``gap`` losses
from the barrier cannot ruin within ``gap - 1`` steps, so on each pass the
trials with a gap above ``_BLOCK_MIN_GAP`` take those steps as one binomial
draw each, while the others step through a gain/loss chunk with exact
first-passage detection.  A trial retires when it ruins or when its gap
exceeds the steps it has left, so it is censored as soon as ruin within the
horizon is impossible.
"""
from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ValidityError
from .model import TrialModel, calibrate
from .oracle import (
    check_walk,
    ruin_probability_dp,
    ruin_probability_closed_form,
    expected_time_classical,
    expected_time_paper,
)
from .series import (
    approx_arith_geometric,
    approx_simplified,
    paper_final_form,
    ruin_series,
)

# Trials per RNG substream. Part of the reproducibility contract: changing
# it changes which bits each trial sees.
BATCH_TRIALS = 8192

_CHUNK_START = 16
_CHUNK_MAX = 256
# Trials farther than this from the barrier take binomial blocks; nearer
# ones step.  On 1e5-step runs at p = 0.51-0.64, 8, 12 and 16 are equally
# fast within noise, 24 is slightly slower and 64 about 1.4x slower.
_BLOCK_MIN_GAP = 16

_MAX_SEED = 2**64 - 1
# Positions and clocks are int64; below this no block sum can overflow.
_MAX_STEPS = 2**62

ProgressCallback = Callable[[int, int], None]


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run parameters for the lattice walk (p, distance).

    ``workers`` is advisory: it changes wall-clock time only, never the
    result.  The process pool holds at most one worker per batch and per
    CPU.
    """

    p: float
    distance: int
    trials: int
    max_steps: int
    seed: int
    workers: int = 1

    def __post_init__(self) -> None:
        check_walk(self.p, self.distance)
        if self.distance % 1:  # a fractional barrier would act as its ceiling
            raise DomainError(f"distance must be an integer, got {self.distance}")
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if self.max_steps < self.distance:
            raise DomainError(
                f"max_steps must be >= distance {self.distance}, "
                f"got {self.max_steps}"
            )
        if self.max_steps > _MAX_STEPS:
            raise DomainError(f"max_steps must be <= 2**62, got {self.max_steps}")
        if not 0 <= self.seed <= _MAX_SEED:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.workers < 1:
            raise DomainError(f"workers must be >= 1, got {self.workers}")

    @classmethod
    def for_lattice(
        cls, p: float, d: int, trials: int, max_steps: int, seed: int, workers: int = 1
    ) -> "SimConfig":
        """The plain constructor under its old name, kept only because the
        benchmark's probes (``bench/tracing.py``) still call it."""
        return cls(p, d, trials, max_steps, seed, workers)


@dataclass(frozen=True)
class SimResult:
    """Aggregate outcome of a simulation run.

    ``ruined + censored == trials``; ``stderr`` is the binomial standard
    error of ``ruin_frequency``; ``mean_time_to_ruin`` averages ruined
    trials only (NaN when nothing ruined).  Ruin-time counts are kept as a
    sparse map because times share the parity of the distance and cluster
    near it.
    """

    ruined: int
    censored: int
    ruin_frequency: float
    stderr: float
    mean_time_to_ruin: float
    time_histogram: dict[int, int]
    seed_echo: int

    def time_stats(self) -> tuple[float, float]:
        """(mean, sample standard deviation) of recorded ruin times,
        computed exactly from the integer histogram."""
        n = self.ruined
        if n == 0:
            return math.nan, math.nan
        total = sum(t * c for t, c in self.time_histogram.items())
        total_sq = sum(t * t * c for t, c in self.time_histogram.items())
        mean = total / n
        if n == 1:
            return mean, 0.0
        var = (total_sq - n * mean * mean) / (n - 1)
        return mean, math.sqrt(max(var, 0.0))


def simulate(config: SimConfig, progress: ProgressCallback | None = None) -> SimResult:
    """Run the lattice simulation described by ``config``.

    Deterministic for a fixed seed: batches are merged in index order and
    all aggregates are integers until the final divisions.
    """
    p, d = config.p, config.distance
    batches = _batch_sizes(config.trials)
    args = [
        (p, d, config.max_steps, config.seed, index, size)
        for index, size in enumerate(batches)
    ]

    # a fork-started pool launches all its workers at the first submit
    pool_size = min(config.workers, len(args), os.cpu_count() or 1)
    if pool_size == 1:
        outcomes = []
        for i, a in enumerate(args):
            outcomes.append(_run_batch(*a))
            if progress is not None:
                progress(i + 1, len(args))
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            chunk = max(1, len(args) // (pool_size * 4))
            outcomes = []
            for i, out in enumerate(pool.map(_run_batch_star, args, chunksize=chunk)):
                outcomes.append(out)
                if progress is not None:
                    progress(i + 1, len(args))

    histogram: Counter[int] = Counter()
    for batch_hist in outcomes:
        histogram.update(batch_hist)
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
        time_histogram=dict(histogram),
        seed_echo=config.seed,
    )


def engine_record() -> dict:
    """What a fixed-seed result depends on beyond the run parameters.

    Under numpy's RNG policy (NEP 19) the streams of ``Generator.random``
    and ``Generator.binomial`` may change between numpy releases.
    """
    return {"bit_generator": "Philox", "batch_trials": BATCH_TRIALS, "numpy": np.__version__}


def _batch_sizes(trials: int) -> list[int]:
    full, rest = divmod(trials, BATCH_TRIALS)
    return [BATCH_TRIALS] * full + ([rest] if rest else [])


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    key = np.array([seed, batch_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _run_batch_star(args: tuple) -> dict[int, int]:
    return _run_batch(*args)


def _run_batch(
    p: float,
    d: int,
    max_steps: int,
    seed: int,
    batch_index: int,
    size: int,
) -> dict[int, int]:
    """Simulate one batch; returns its ruin-time histogram ``{step: count}``.

    Each pass moves the far trials one binomial block each and steps the
    near ones one chunk; when no trial is far the near ones are the whole
    batch and nothing is gathered or scattered.
    """
    rng = _batch_rng(seed, batch_index)
    gap = np.full(size, d, dtype=np.int64)
    t = np.zeros(size, dtype=np.int64)
    chunk = _CHUNK_START
    ruin_times = []

    while gap.size:
        far = gap > _BLOCK_MIN_GAP
        n_far = int(np.count_nonzero(far))
        if n_far == gap.size:
            gap, t = _block(rng, p, max_steps, gap, t)
            continue
        if n_far:
            far_gap, far_t = _block(rng, p, max_steps, gap[far], t[far])
            near = ~far
            gap, t = gap[near], t[near]
        gap, t, times = _step(rng, p, max_steps, gap, t, chunk)
        ruin_times.append(times)
        if n_far:
            gap = np.concatenate((far_gap, gap))
            t = np.concatenate((far_t, t))
        if chunk < _CHUNK_MAX:
            chunk *= 2

    times = np.concatenate(ruin_times) if ruin_times else np.zeros(0, np.int64)
    steps, counts = np.unique(times, return_counts=True)
    return dict(zip(steps.tolist(), counts.tolist()))


def _block(
    rng: np.random.Generator, p: float, max_steps: int, gap: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Advance each trial by ``gap - 1`` steps in one binomial draw: ruin is
    impossible within them.  Every live trial has ``gap <= max_steps - t``,
    so no block passes the horizon.  Returns the trials that can still
    ruin."""
    block = gap - 1
    gap += 2 * rng.binomial(block, p) - block
    t += block
    live = gap <= max_steps - t
    return gap[live], t[live]


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
    of those that did."""
    remaining = max_steps - t
    steps = min(chunk, int(remaining.max()))
    moves = (rng.random((gap.size, steps)) >= p).astype(np.int8)  # 1 = loss
    moves *= 2
    moves -= 1
    walk = np.cumsum(moves, axis=1, dtype=np.int32)  # net losses so far
    walk -= gap[:, None].astype(np.int32)  # gap <= _BLOCK_MIN_GAP fits
    hit = walk >= 0  # the first such step is exactly the first passage
    first = np.argmax(hit, axis=1)
    crossed = hit[np.arange(gap.size), first]
    ruined = crossed & (first < remaining)
    gap = -walk[:, -1].astype(np.int64)
    t = t + steps
    live = ~crossed & (gap <= max_steps - t)
    return gap[live], t[live], t[ruined] - steps + 1 + first[ruined]


def bankroll_lattice_crosscheck(
    model: TrialModel,
    loss_level: float,
    trials: int,
    max_steps: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Run paired walks on shared random bits and return both ruin steps.

    For each trial the same gain/loss sequence drives (a) the integer
    lattice walk ruined when net losses reach the calibrated distance and
    (b) a floating-point bankroll multiplied by ``1 + gain_factor`` or
    ``1 + loss_factor`` and ruined when it falls to ``loss_level`` or
    below.  Returns ``(lattice_steps, bankroll_steps)`` with -1 marking a
    censored trial.  With power-of-two move factors the bankroll stays
    exactly representable, so the two walks must agree step for step.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    spec = calibrate(loss_level, model.loss_factor)
    if max_steps < spec.distance:
        raise DomainError(
            f"max_steps must be >= distance {spec.distance}, got {max_steps}"
        )
    d = spec.distance
    up = 1.0 + model.gain_factor
    down = 1.0 + model.loss_factor

    lattice_steps = np.full(trials, -1, dtype=np.int64)
    bankroll_steps = np.full(trials, -1, dtype=np.int64)

    start = 0
    for batch_index, size in enumerate(_batch_sizes(trials)):
        rng = _batch_rng(seed, batch_index)
        idx = np.arange(start, start + size)
        pos = np.zeros(size, dtype=np.int64)
        bankroll = np.ones(size)
        lattice_active = np.ones(size, dtype=bool)
        bankroll_active = np.ones(size, dtype=bool)
        for t in range(1, max_steps + 1):
            gains = rng.random(size) < model.p_gain
            pos += np.where(gains, 1, -1)
            np.multiply(bankroll, np.where(gains, up, down), out=bankroll)
            lattice_hit = lattice_active & (pos <= -d)
            bankroll_hit = bankroll_active & (bankroll <= loss_level)
            lattice_steps[idx[lattice_hit]] = t
            bankroll_steps[idx[bankroll_hit]] = t
            lattice_active &= ~lattice_hit
            bankroll_active &= ~bankroll_hit
            if not lattice_active.any() and not bankroll_active.any():
                break
        start += size

    return lattice_steps, bankroll_steps


@dataclass(frozen=True)
class MethodEstimate:
    """One method's estimate next to the DP reference."""

    method: str
    value: float | None
    valid: bool
    note: str
    abs_dev_from_dp: float | None


@dataclass(frozen=True)
class MethodComparison:
    """Aligned ruin-probability and expected-time estimates.

    The DP at ``dp_horizon`` is the reference; every other row carries its
    absolute deviation from it.  Approximations evaluated outside their
    validity region are flagged, not raised.
    """

    p_gain: float
    distance: int
    dp_horizon: int
    ruin_reference: float
    time_reference: float
    ruin_estimates: tuple[MethodEstimate, ...]
    time_estimates: tuple[MethodEstimate, ...]
    simulation: SimResult


def compare_methods(
    config: SimConfig,
    max_gains: int = 200,
    dp_horizon: int | None = None,
    progress: ProgressCallback | None = None,
) -> MethodComparison:
    """Line up every estimator of the (p, d) ruin problem in one table."""
    p, d = config.p, config.distance
    horizon = dp_horizon if dp_horizon is not None else config.max_steps
    reference = ruin_probability_dp(p, d, horizon)
    ruin_ref = reference.ruin_probability_within_horizon
    sim = simulate(config, progress=progress)

    series_note = f"cumulative at max_gains={max_gains}"
    ruin_rows = [
        MethodEstimate("dp", ruin_ref, True, f"reference, horizon={horizon}", 0.0),
        _estimate("series_exact", lambda: ruin_series(p, d, max_gains, "exact").cumulative,
                  ruin_ref, series_note),
        _estimate("series_paper", lambda: ruin_series(p, d, max_gains, "paper").cumulative,
                  ruin_ref, series_note),
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
        _estimate("classical_drift", lambda: expected_time_classical(p, d), time_ref),
        _estimate("monte_carlo_censored_mean", lambda: sim.mean_time_to_ruin, time_ref,
                  f"over {sim.ruined} ruined trials"),
    ]

    return MethodComparison(
        p_gain=p,
        distance=d,
        dp_horizon=horizon,
        ruin_reference=ruin_ref,
        time_reference=time_ref,
        ruin_estimates=tuple(ruin_rows),
        time_estimates=tuple(time_rows),
        simulation=sim,
    )


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
        value = math.nan
    if math.isnan(value):
        return MethodEstimate(method, None, False, note or "undefined here", None)
    if math.isinf(value):
        return MethodEstimate(
            method, None, True, "divergent: ruin not certain or mean infinite", None
        )
    dev = None if math.isnan(reference) else abs(value - reference)
    return MethodEstimate(method, value, True, note, dev)
