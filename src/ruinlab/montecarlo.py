"""Reproducible Monte Carlo simulation of the multiplicative ruin process.

The canonical engine walks the integer net-loss lattice (one loss moves one
step toward the barrier, one gain moves one step away) because integers are
exact; a bankroll-scale walk exists only as a cross-check mode.

Reproducibility is a contract, not best effort: trials are processed in
fixed-size batches and batch ``b`` draws from a counter-based Philox stream
keyed by ``(seed, b)``, so a run is bit-identical for a fixed seed no
matter how many workers execute it or how batches are scheduled.

Each batch advances all active trials in lockstep.  Near the barrier it
steps through gain/loss chunks with exact first-passage detection; once
every active trial is more than ``_BLOCK_MIN_GAP`` net losses away from
the barrier, a block of ``gap - 1`` steps (within which ruin is impossible)
collapses into a single binomial draw per trial.
"""
from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
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
_BLOCK_MIN_GAP = 64

_MAX_SEED = 2**64 - 1

ProgressCallback = Callable[[int, int], None]


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run parameters for the lattice walk (p, distance).

    ``workers`` is advisory: it changes wall-clock time only, never the
    result.
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

    @property
    def trials(self) -> int:
        return self.ruined + self.censored

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

    def to_dict(self) -> dict:
        mean = self.mean_time_to_ruin
        return {
            "ruined": self.ruined,
            "censored": self.censored,
            "ruin_frequency": self.ruin_frequency,
            "stderr": self.stderr,
            "mean_time_to_ruin": None if math.isnan(mean) else mean,
            "time_histogram": {
                str(t): c for t, c in sorted(self.time_histogram.items())
            },
            "seed_echo": self.seed_echo,
        }


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

    if config.workers == 1 or len(args) == 1:
        outcomes = []
        for i, a in enumerate(args):
            outcomes.append(_run_batch(*a))
            if progress is not None:
                progress(i + 1, len(args))
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            chunk = max(1, len(args) // (config.workers * 4))
            outcomes = []
            for i, out in enumerate(pool.map(_run_batch_star, args, chunksize=chunk)):
                outcomes.append(out)
                if progress is not None:
                    progress(i + 1, len(args))

    ruined = 0
    time_sum = 0
    histogram: Counter[int] = Counter()
    for batch_ruined, batch_time_sum, batch_hist in outcomes:
        ruined += batch_ruined
        time_sum += batch_time_sum
        histogram.update(batch_hist)

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


def _batch_sizes(trials: int) -> list[int]:
    full, rest = divmod(trials, BATCH_TRIALS)
    return [BATCH_TRIALS] * full + ([rest] if rest else [])


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    key = np.array([seed, batch_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _run_batch_star(args: tuple) -> tuple[int, int, dict[int, int]]:
    return _run_batch(*args)


def _run_batch(
    p: float,
    d: int,
    max_steps: int,
    seed: int,
    batch_index: int,
    size: int,
) -> tuple[int, int, dict[int, int]]:
    """Simulate one batch; returns (ruined, exact ruin-time sum, histogram)."""
    rng = _batch_rng(seed, batch_index)
    pos = np.zeros(size, dtype=np.int64)  # net position: gains - losses
    t = 0
    chunk = _CHUNK_START
    ruined = 0
    time_sum = 0
    histogram: Counter[int] = Counter()

    while pos.size and t < max_steps:
        gap = int(pos.min()) + d  # net losses needed before any trial can ruin
        if gap > _BLOCK_MIN_GAP:
            # no trial can reach the barrier within gap-1 steps, so the
            # whole block collapses to one binomial draw per trial
            block = min(gap - 1, max_steps - t)
            wins = rng.binomial(block, p, size=pos.size)
            pos += 2 * wins - block
            t += block
            continue

        steps = min(chunk, max_steps - t)
        gains = rng.random((pos.size, steps)) < p
        walk = pos[:, None] + np.cumsum(np.where(gains, 1, -1), axis=1)
        hit = walk <= -d  # first crossing is exactly -d on a +/-1 walk
        ruined_rows = hit.any(axis=1)
        if ruined_rows.any():
            ruin_times = t + 1 + np.argmax(hit[ruined_rows], axis=1)
            ruined += int(ruined_rows.sum())
            time_sum += int(ruin_times.sum())
            histogram.update(ruin_times.tolist())
        pos = walk[~ruined_rows, -1]
        t += steps
        if chunk < _CHUNK_MAX:
            chunk *= 2

    return ruined, time_sum, dict(histogram)


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
    spec = calibrate(model, loss_level)
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

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "value": self.value,
            "valid": self.valid,
            "note": self.note,
            "abs_dev_from_dp": self.abs_dev_from_dp,
        }


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

    def to_dict(self) -> dict:
        return {
            "p_gain": self.p_gain,
            "distance": self.distance,
            "dp_horizon": self.dp_horizon,
            "ruin_reference": self.ruin_reference,
            "time_reference": (
                None if math.isnan(self.time_reference) else self.time_reference
            ),
            "ruin_estimates": [e.to_dict() for e in self.ruin_estimates],
            "time_estimates": [e.to_dict() for e in self.time_estimates],
            "simulation": self.simulation.to_dict(),
        }


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

    def row(method: str, value: float | None, valid: bool = True, note: str = "") -> MethodEstimate:
        dev = abs(value - ruin_ref) if value is not None else None
        return MethodEstimate(method, value, valid, note, dev)

    ruin_rows = [
        MethodEstimate("dp", ruin_ref, True, f"reference, horizon={horizon}", 0.0),
        row(
            "series_exact",
            ruin_series(p, d, max_gains, "exact").cumulative,
            note=f"cumulative at max_gains={max_gains}",
        ),
        row(
            "series_paper",
            ruin_series(p, d, max_gains, "paper").cumulative,
            note=f"cumulative at max_gains={max_gains}",
        ),
        _approx_row("approx_arith_geometric", approx_arith_geometric, p, d, ruin_ref),
        _approx_row("approx_simplified", approx_simplified, p, d, ruin_ref),
        row("paper_final_form", paper_final_form(p, d)),
        row("closed_form_classical", ruin_probability_closed_form(p, d)),
        row(
            "monte_carlo",
            sim.ruin_frequency,
            note=f"trials={config.trials}, max_steps={config.max_steps}, "
            f"seed={config.seed}, stderr={sim.stderr:.3e}",
        ),
    ]

    time_ref = reference.expected_time_censored
    time_rows = [
        MethodEstimate(
            "dp_censored_mean",
            None if math.isnan(time_ref) else time_ref,
            True,
            f"reference, horizon={horizon}",
            0.0 if not math.isnan(time_ref) else None,
        ),
        _time_row("paper_estimator", _paper_time_value(p, d), time_ref),
        _time_row("classical_drift", expected_time_classical(p, d), time_ref),
        _time_row(
            "monte_carlo_censored_mean",
            sim.mean_time_to_ruin,
            time_ref,
            note=f"over {sim.ruined} ruined trials",
        ),
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


def _approx_row(
    method: str,
    fn: Callable[[float, int], float],
    p: float,
    d: int,
    ruin_ref: float,
) -> MethodEstimate:
    try:
        value = fn(p, d)
    except ValidityError as exc:
        return MethodEstimate(method, None, False, f"outside validity: {exc}", None)
    return MethodEstimate(method, value, True, "", abs(value - ruin_ref))


def _paper_time_value(p: float, d: int) -> float:
    try:
        return expected_time_paper(p, d)
    except DomainError:
        return math.nan


def _time_row(
    method: str, value: float, time_ref: float, note: str = ""
) -> MethodEstimate:
    if math.isinf(value):
        return MethodEstimate(
            method, None, True, "divergent: ruin not certain or mean infinite", None
        )
    if math.isnan(value):
        return MethodEstimate(method, None, False, note or "undefined here", None)
    dev = abs(value - time_ref) if not math.isnan(time_ref) else None
    return MethodEstimate(method, value, True, note, dev)
