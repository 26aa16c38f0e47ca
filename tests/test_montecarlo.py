"""Simulation engine: determinism, statistics against the DP oracle, and
the bankroll/lattice equivalence."""
import concurrent.futures
import itertools
import json
import math
import os
import pickle
import re
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from ruinlab import (
    DomainError,
    SimConfig,
    TrialModel,
    calibrate,
    compare_methods,
    ruin_probability_dp,
    simulate,
)
from ruinlab import montecarlo
from ruinlab.cli import _jsonable
from ruinlab.montecarlo import (
    _BRIDGE_MAX,
    _POOL_PROCESS_S,
    _POOL_START_S,
    BATCH_TRIALS,
    _LOG_FACTORIALS,
    _ballot_steps,
    _block_lengths,
    _crossing,
    _losses,
)

from oracles import (
    bankroll_lattice_crosscheck,
    bridge_first_passage_by_enumeration,
    gain_probability_on_double_grid,
    time_stats,
)


def lattice_config(p, d, trials, max_steps, seed, workers=1):
    return SimConfig(p, d, trials, max_steps, seed, workers)


def test_deterministic_loss_run():
    result = simulate(lattice_config(0.0, 2, 1000, 100, seed=11))
    assert result.ruined == 1000
    assert result.censored == 0
    assert result.ruin_frequency == 1.0
    assert result.time_histogram == {2: 1000}
    assert result.mean_time_to_ruin == 2.0


def test_all_gain_never_ruins():
    result = simulate(lattice_config(1.0, 2, 1000, 10_000, seed=3))
    assert result.ruined == 0
    assert result.ruin_frequency == 0.0
    assert math.isnan(result.mean_time_to_ruin)
    assert result.time_histogram == {}


def test_bit_identical_across_runs_and_workers():
    config1 = lattice_config(0.48, 2, 30_000, 2000, seed=987654321)
    first = simulate(config1)
    again = simulate(config1)
    assert first == again
    parallel = simulate(lattice_config(0.48, 2, 30_000, 2000, seed=987654321, workers=4))
    assert first == parallel
    assert json.dumps(_jsonable(first)) == json.dumps(_jsonable(parallel))


def recorded(config):
    calls = []
    result = simulate(config, progress=lambda done, total: calls.append((done, total)))
    return result, calls


def each_batch_takes(monkeypatch, seconds):
    """A clock under which the first batch, the one ``simulate`` times, takes
    ``seconds``."""
    monkeypatch.setattr(montecarlo, "perf_counter", partial(next, itertools.count(0.0, seconds)))


@pytest.fixture
def started_pools(monkeypatch):
    """The sizes of the process pools a run starts; the pools fork nothing."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            assert chunksize >= 1
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.mark.parametrize(
    "workers, cpus, batches, pool_sizes",
    [
        (4096, 8, 2, []),  # one batch after the first: nothing to split
        (4096, 3, 5, [3]),  # never more workers than CPUs
        (2, 8, 3, [2]),
        (4096, 1, 2, []),  # one CPU: in process
        (4096, None, 2, []),  # CPU count unknown: in process
        (4096, 8, 3, [2]),  # nor than batches after the first
        # the default: one process per batch left and per CPU
        (None, 8, 3, [2]),
        (None, 3, 5, [3]),
        (None, 8, 2, []),
        (None, 1, 5, []),
        (None, None, 5, []),
    ],
)
def test_process_pool_is_sized_by_workers_batches_and_cpus(
    monkeypatch, started_pools, workers, cpus, batches, pool_sizes
):
    # a fork-started pool launches all max_workers processes at the first
    # submit, so the recorded size is the number of processes forked; with
    # the start cost at 0 (the conftest fixture), a pool starts whenever it
    # has batches to split
    each_batch_takes(monkeypatch, 1.0)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    config = lattice_config(0.3, 1, batches * BATCH_TRIALS, 5, seed=3, workers=workers)
    result, calls = recorded(config)
    assert started_pools == pool_sizes
    assert (result, calls) == recorded(config._replace(workers=1))
    assert calls == [(done, batches) for done in range(1, batches + 1)]


@pytest.mark.parametrize(
    "batch_s, pool_sizes",
    [
        # the pools started by a run capped at 2 workers and by a default
        # run; 4 batches and 8 CPUs, so a default pool has 3 processes, saves
        # two batch times and costs 60 ms, and a pool of 2 saves one and
        # costs 50 ms.  A benchmark-sized run (p = 0.6, d = 3, 1e5 steps)
        # takes about 7 ms a batch: neither pool pays
        (0.007, {2: [], None: []}),
        # batches of 60 ms: both pay
        (0.06, {2: [2], None: [3]}),
        # 56 ms saved by 3 processes: more than the 50 ms 2 cost, less than 60
        (0.028, {2: [], None: []}),
        (0.04, {2: [], None: [3]}),
    ],
)
def test_pool_starts_only_when_it_saves_more_than_it_costs(
    monkeypatch, started_pools, batch_s, pool_sizes
):
    monkeypatch.setattr(montecarlo, "_POOL_START_S", _POOL_START_S)
    monkeypatch.setattr(montecarlo, "_POOL_PROCESS_S", _POOL_PROCESS_S)
    each_batch_takes(monkeypatch, batch_s)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    for workers, sizes in pool_sizes.items():
        started_pools.clear()
        config = lattice_config(0.6, 3, 4 * BATCH_TRIALS, 100_000, seed=11, workers=workers)
        result, calls = recorded(config)
        assert started_pools == sizes
        assert calls == [(done, 4) for done in range(1, 5)]
        assert result == simulate(config._replace(workers=1))


def test_different_seeds_differ():
    a = simulate(lattice_config(0.5, 2, 20_000, 500, seed=1))
    b = simulate(lattice_config(0.5, 2, 20_000, 500, seed=2))
    assert a.time_histogram != b.time_histogram


def test_counts_and_frequency_are_consistent():
    result = simulate(lattice_config(0.52, 3, 12_345, 300, seed=42))
    assert result.ruined + result.censored == 12_345
    assert result.ruin_frequency == pytest.approx(result.ruined / 12_345)
    assert sum(result.time_histogram.values()) == result.ruined
    expected_stderr = math.sqrt(
        result.ruin_frequency * (1 - result.ruin_frequency) / 12_345
    )
    assert result.stderr == pytest.approx(expected_stderr)
    assert result.seed_echo == 42


@pytest.mark.parametrize("p,d", [(0.3, 2), (0.5, 3), (0.6, 1), (0.45, 4)])
def test_ruin_time_parity(p, d):
    result = simulate(lattice_config(p, d, 50_000, 500, seed=777))
    assert result.time_histogram
    for step in result.time_histogram:
        assert step >= d
        assert (step - d) % 2 == 0


def test_seed_sweep_matches_dp_within_four_stderr():
    # drift-down regime with the horizon picked so DP survival < 1e-4
    p, d, trials = 0.3, 3, 1_000_000
    max_steps = next(
        h
        for h in range(d, 1000, 2)
        if ruin_probability_dp(p, d, h).survival_mass < 1e-4
    )
    dp_ruin = ruin_probability_dp(p, d, max_steps).ruin_probability_within_horizon
    misses = 0
    for seed in range(100):
        result = simulate(lattice_config(p, d, trials, max_steps, seed=seed))
        if abs(result.ruin_frequency - dp_ruin) > 4 * result.stderr:
            misses += 1
    assert misses <= 1  # at least 99% of seeds agree


def test_agreement_at_region_boundary():
    # slowest corner of the drift-down regime: p = 0.45, d = 5; the horizon
    # lands just past the survival threshold so the frequency comparison
    # keeps a nondegenerate standard error
    p, d = 0.45, 5
    max_steps = next(
        h
        for h in range(d, 4000, 25)
        if ruin_probability_dp(p, d, h).survival_mass < 1e-4
    )
    dp_ruin = ruin_probability_dp(p, d, max_steps).ruin_probability_within_horizon
    result = simulate(lattice_config(p, d, 1_000_000, max_steps, seed=60))
    assert abs(result.ruin_frequency - dp_ruin) <= 4 * result.stderr


def test_censored_mean_matches_classical_drift():
    result = simulate(lattice_config(0.4, 3, 1_000_000, 10_000, seed=2024))
    mean, std = time_stats(result.time_histogram)
    se = std / math.sqrt(result.ruined)
    assert abs(mean - 15.0) <= 3 * se
    assert result.mean_time_to_ruin == pytest.approx(mean)


def test_block_skip_regime_still_exact():
    # far-from-barrier batches take the binomial fast path; ruin can only
    # happen in the stepwise windows, which a large-d run with p=0
    # exercises end to end: the first 64+ steps collapse into blocks
    result = simulate(lattice_config(0.0, 100, 500, 150, seed=5))
    assert result.ruined == 500
    assert result.time_histogram == {100: 500}


def assert_histogram_matches_dp(result, p, d, max_steps, trials):
    # each ruin-time bin expecting >= 10 trials, the pooled rarer bins and
    # the censored count are each within 5 sigma of the DP distribution
    dp = ruin_probability_dp(p, d, max_steps, keep_distribution=True)
    bins = [(result.time_histogram.get(t, 0), mass)
            for t, mass in dp.ruin_time_distribution.items()]
    assert set(result.time_histogram) <= set(dp.ruin_time_distribution)
    rare = [(count, mass) for count, mass in bins if trials * mass < 10]
    checks = [bin for bin in bins if trials * bin[1] >= 10]
    checks.append((sum(c for c, _ in rare), sum(m for _, m in rare)))
    checks.append((result.censored, dp.survival_mass))
    assert len(checks) > 100
    for count, mass in checks:
        sigma = math.sqrt(trials * mass * (1.0 - mass))
        assert abs(count - trials * mass) <= 5 * sigma, (count, trials * mass)


def test_ruin_time_histogram_matches_dp_where_blocks_fire():
    # drift away from the barrier: most surviving trials leave the step
    # phase for bridge blocks, and some of them come back and ruin
    p, d, max_steps, trials = 0.55, 2, 2000, 200_000
    result = simulate(lattice_config(p, d, trials, max_steps, seed=55))
    assert_histogram_matches_dp(result, p, d, max_steps, trials)


def test_ruin_time_histogram_matches_dp_where_far_trials_cross():
    # every trial starts past the block threshold and drifts toward the
    # barrier, so most ruins come from crossed bridge blocks and their
    # ballot-law times
    p, d, max_steps, trials = 0.45, 40, 2000, 200_000
    result = simulate(lattice_config(p, d, trials, max_steps, seed=4045))
    assert_histogram_matches_dp(result, p, d, max_steps, trials)


def test_bridge_crossing_and_ballot_law_match_enumeration():
    # every block of m <= 12 steps with k losses from gap g <= 7: the
    # reflection probability and the inverse CDF of the ballot law against
    # exact enumeration of the arrangements
    g_, m_, k_, u_, want = [], [], [], [], []
    for m in range(1, 13):
        for k in range(m + 1):
            for g in range(1, 8):
                masses = bridge_first_passage_by_enumeration(m, k, g)
                if k < g:  # the engine draws no uniform for these blocks
                    assert not masses
                    continue
                total = sum(masses.values())
                engine = _crossing(np.array([g]), np.array([m]), np.array([k]))[0]
                assert engine == pytest.approx(float(total), rel=1e-12, abs=1e-15), (m, k, g)
                below = Fraction(0)
                for step in sorted(masses):
                    above = below + masses[step]
                    for u in (float(below) + 1e-9, float(below + above) / 2, float(above) - 1e-9):
                        g_.append(g), m_.append(m), k_.append(k), u_.append(u), want.append(step)
                    below = above
    steps = _ballot_steps(*(np.array(a) for a in (g_, m_, k_)), np.array(u_))
    assert len(want) > 2000
    assert steps.tolist() == want


@pytest.mark.parametrize("m, k, g", [(300, 160, 17), (300, 150, 25), (2000, 1030, 40)])
def test_ballot_law_over_many_windows(m, k, g):
    # first passages up to a thousand steps in: the inverse CDF crosses
    # several of its doubling windows; ballot masses in exact rationals
    masses = {}
    for r in range(min(k - g, m - k, (m - g) // 2) + 1):
        j = g + 2 * r
        masses[j] = Fraction(g * math.comb(j, g + r) * math.comb(m - j, k - g - r),
                             j * math.comb(m, k))
    assert _crossing(np.array([g]), np.array([m]), np.array([k]))[0] == pytest.approx(
        float(sum(masses.values())), rel=1e-12)
    us, want = [], []
    below = Fraction(0)
    for step, mass in masses.items():
        above = below + mass
        if mass > 1e-7:  # wide enough to probe inside the float error
            us.append(float(below + above) / 2)
            want.append(step)
        below = above
    assert max(want) > g + 100
    # thousands of crossed trials at once keep the windows narrow
    us, want = us * 20, want * 20
    n = len(us)
    steps = _ballot_steps(np.full(n, g), np.full(n, m), np.full(n, k), np.array(us))
    assert steps.tolist() == want


def test_every_block_that_can_cross_fits_the_log_factorial_table():
    # the crossing and ballot laws index the table up to the block length,
    # so a block with m >= gap (the only kind that can cross) must not pass
    # _BRIDGE_MAX at any walk, gap or horizon
    gaps = np.array([17, 100, 2**16, 2**16 + 1, 2**16 + 2, 2**40])
    for p in (0.0, 0.3, 0.5, 0.5 + 1e-9, 0.7, 1.0):
        for remaining in (1, 2**16, 2**62):
            m = _block_lengths(p, np.full(gaps.size, remaining), gaps)
            assert (m[m >= gaps] <= _BRIDGE_MAX).all(), (p, remaining)
    assert _LOG_FACTORIALS.size == _BRIDGE_MAX + 1
    assert _LOG_FACTORIALS[:32].tolist() == [math.lgamma(n + 1) for n in range(32)]


def test_ballot_step_past_the_rounded_cdf_is_the_last_step():
    # u is drawn below the crossing probability, but the float sum of the
    # masses can end a hair under it: such a u takes the last step with mass
    g, m, k = np.array([17, 25, 3]), np.array([300, 300, 12]), np.array([160, 150, 7])
    last = np.minimum(np.minimum(k - g, m - k), (m - g) // 2)
    steps = _ballot_steps(g, m, k, np.full(3, 2.0))
    assert steps.tolist() == (g + 2 * last).tolist()


@pytest.mark.parametrize("m, k, g", [
    (80, 45, 5), (200, 110, 20), (4096, 2100, 60), (40_000, 20_500, 1000),
    (_BRIDGE_MAX, 32_800, 300), (_BRIDGE_MAX, 33_000, 17), (_BRIDGE_MAX, 60_000, 30_000),
])
def test_crossing_probability_is_accurate_up_to_the_table_size(m, k, g):
    exact = Fraction(math.comb(m, k - g), math.comb(m, k))
    engine = _crossing(np.array([g]), np.array([m]), np.array([k]))[0]
    assert engine == pytest.approx(float(min(exact, 1)), rel=1e-9)


class _ByteStub:
    """Stands in for a Generator: the 256 byte values in order, then a
    fixed double for every tie."""

    def __init__(self, u):
        self.u = u
        self.bit_generator = self

    def random_raw(self, words):
        assert words == 32
        return np.frombuffer(bytes(range(256)), dtype="<u8").copy()

    def random(self, size):
        return np.full(size, self.u)


@pytest.mark.parametrize("p", [0.0, 1 / 256, 0.3, 0.5, 0.6, 255 / 256, 1.0])
def test_byte_rule_gives_gain_probability_p_exactly(p):
    def gains(u):
        return (~_losses(_ByteStub(u), p, 256)).tolist()

    assert gain_probability_on_double_grid(gains) == Fraction(p)


def test_censoring_is_exact_at_an_odd_horizon():
    # 1001 is a multiple of no chunk length, and at p = 1/2 near and far
    # trials share every batch; ruin at step 1001 itself is possible (d odd)
    p, d, max_steps, trials = 0.5, 11, 1001, 200_000
    result = simulate(lattice_config(p, d, trials, max_steps, seed=1001))
    assert result.ruined + result.censored == trials
    assert sum(result.time_histogram.values()) == result.ruined
    for step in result.time_histogram:
        assert d <= step <= max_steps
        assert (step - d) % 2 == 0
    dp = ruin_probability_dp(p, d, max_steps, keep_distribution=True)
    late = 900  # the last ~100 steps before the horizon
    for count, mass in (
        (result.ruined, dp.ruin_probability_within_horizon),
        (sum(c for t, c in result.time_histogram.items() if t > late),
         sum(m for t, m in dp.ruin_time_distribution.items() if t > late)),
    ):
        sigma = math.sqrt(trials * mass * (1.0 - mass))
        assert abs(count - trials * mass) <= 5 * sigma, (count, trials * mass)


def test_multiplicative_equivalence_with_shared_bits():
    model = TrialModel(p_gain=0.5, gain_factor=1.0, loss_factor=-0.5)
    distance = calibrate(0.25, model.loss_factor).distance
    lattice_steps, bankroll_steps = bankroll_lattice_crosscheck(
        model, 0.25, distance, trials=2000, max_steps=512, seed=99
    )
    assert np.array_equal(lattice_steps, bankroll_steps)
    ruined = lattice_steps[lattice_steps > 0]
    assert ruined.size > 0
    assert np.all((ruined - 2) % 2 == 0)
    assert np.any(lattice_steps == -1)  # some trials censor at this horizon


def test_config_validation():
    with pytest.raises(DomainError):
        SimConfig(0.5, 2, trials=0, max_steps=100, seed=1)
    with pytest.raises(DomainError):
        SimConfig(0.5, 2, trials=10, max_steps=1, seed=1)  # below distance
    with pytest.raises(DomainError):
        SimConfig(0.5, 2, trials=10, max_steps=100, seed=-1)
    with pytest.raises(DomainError):
        SimConfig(0.5, 2, trials=10, max_steps=100, seed=2**64)
    with pytest.raises(DomainError):
        SimConfig(0.5, 2, trials=10, max_steps=100, seed=1, workers=0)
    for p in (-0.1, 1.5, math.nan):
        with pytest.raises(DomainError, match="p must be in"):
            SimConfig(p, 2, trials=10, max_steps=100, seed=1)
    for d in (0, -3, 2.5, math.inf):
        with pytest.raises(DomainError, match="distance must be"):
            SimConfig(0.5, d, trials=10, max_steps=100, seed=1)


VALID_CONFIG = {"p": 0.5, "distance": 3, "trials": 10, "max_steps": 100, "seed": 1,
                "workers": None}


@pytest.mark.parametrize("build", ["constructor", "_replace", "_make", "pickle"])
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("p", 1.5, "p must be in [0, 1], got 1.5"),
        ("distance", 2.5, "distance must be an integer, got 2.5"),
        ("trials", -5, "trials must be >= 1, got -5"),
        ("max_steps", 2, "max_steps must be >= distance 3, got 2"),
        ("seed", 2**64, "seed must be a 64-bit unsigned integer, got 18446744073709551616"),
        ("workers", 0, "workers must be >= 1, got 0"),
    ],
)
def test_config_validates_however_it_is_built(build, field, value, message):
    # _replace builds through _make, and a pool worker's copy through
    # unpickling: neither may skip the checks the constructor makes
    fields = {**VALID_CONFIG, field: value}
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        if build == "constructor":
            SimConfig(**fields)
        elif build == "_replace":
            SimConfig(**VALID_CONFIG)._replace(**{field: value})
        elif build == "_make":
            SimConfig._make(fields.values())
        else:  # a copy of a record built past the checks
            pickle.loads(pickle.dumps(tuple.__new__(SimConfig, fields.values())))
    replaced = SimConfig(**VALID_CONFIG)._replace(workers=2)
    assert type(replaced) is SimConfig
    assert replaced == SimConfig(**{**VALID_CONFIG, "workers": 2})


def test_config_rejects_horizons_past_int64_block_arithmetic():
    SimConfig(1.0, 2**62, trials=1, max_steps=2**62, seed=1)
    with pytest.raises(DomainError, match="max_steps must be <= 2\\*\\*62"):
        SimConfig(0.5, 2, trials=1, max_steps=2**62 + 1, seed=1)


def test_config_has_only_the_fields_simulate_reads():
    assert SimConfig._fields == ("p", "distance", "trials", "max_steps", "seed", "workers")
    assert SimConfig.for_lattice(0.6, 3, 10, 100, 42, 2) == SimConfig(0.6, 3, 10, 100, 42, 2)
    # no cap unless one is given, under either name
    assert SimConfig.for_lattice(0.6, 3, 10, 100, 42) == SimConfig(0.6, 3, 10, 100, 42)
    assert SimConfig(0.6, 3, 10, 100, 42).workers is None


def test_batches_cover_trials_exactly():
    # at p = 0 every trial ruins on step 1, so each trial of each batch counts
    for trials, batches in ((1, 1), (BATCH_TRIALS, 1), (2 * BATCH_TRIALS + 17, 3)):
        progress = []
        result = simulate(lattice_config(0.0, 1, trials, 1, seed=5),
                          progress=lambda done, total: progress.append((done, total)))
        assert (result.ruined, result.censored) == (trials, 0)
        assert result.time_histogram == {1: trials}
        assert progress == [(done, batches) for done in range(1, batches + 1)]


def test_trials_past_the_step_bound_are_refused():
    # without a batch list, an unbounded count would run batch after batch
    assert SimConfig(0.5, 2, trials=2**62, max_steps=2, seed=1).trials == 2**62
    with pytest.raises(DomainError, match="trials must be <= 2\\*\\*62, got 4611686018427387905"):
        SimConfig(0.5, 2, trials=2**62 + 1, max_steps=2, seed=1)


def test_long_runs_keep_no_array_per_pass(monkeypatch):
    # 22 464 passes, nearly all without a ruin: a batch keeps the ruin
    # times of the passes that have some, so its last concatenation joins
    # at most one array per ruined trial, not one per pass
    joined = []
    concatenate = np.concatenate

    def recording(arrays, *args, **kwargs):
        joined.append(len(arrays))
        return concatenate(arrays, *args, **kwargs)

    monkeypatch.setattr(np, "concatenate", recording)
    result = simulate(lattice_config(0.5, 20, 2000, 2**62, seed=3))
    assert result.ruined == 2000
    assert max(joined) <= result.ruined + 1


@pytest.mark.parametrize("workers", [1, 2])
def test_time_histogram_is_in_step_order_across_batches(workers):
    # at fair odds the later batches ruin at steps the first one never saw;
    # merged in batch order, those steps would land after the first's
    result = simulate(lattice_config(0.5, 2, 3 * BATCH_TRIALS + 5, 1000, seed=7,
                                     workers=workers))
    steps = list(result.time_histogram)
    assert len(steps) > 100
    assert steps == sorted(steps)


def test_simresult_serialization():
    result = simulate(lattice_config(0.0, 2, 10, 10, seed=1))
    payload = _jsonable(result)
    assert payload["time_histogram"] == {2: 10}
    assert payload["ruined"] == 10
    assert '"time_histogram": {"2": 10}' in json.dumps(payload)
    empty = _jsonable(simulate(lattice_config(1.0, 2, 10, 10, seed=1)))
    assert empty["mean_time_to_ruin"] is None


def test_compare_methods_all_zero_when_gains_certain():
    comparison = compare_methods(lattice_config(1.0, 5, 1000, 1000, seed=8))
    for estimate in comparison.ruin_estimates:
        if estimate.valid and estimate.value is not None:
            assert estimate.value == pytest.approx(0.0, abs=1e-15), estimate.method


def test_compare_methods_fair_odds_rows():
    comparison = compare_methods(lattice_config(0.5, 2, 20_000, 50_000, seed=31), max_gains=200)
    rows = {e.method: e for e in comparison.ruin_estimates}
    assert rows["closed_form_classical"].value == 1.0
    assert rows["paper_final_form"].value == pytest.approx(0.0625)
    assert rows["series_exact"].value > 0.9  # slowly approaching 1
    assert rows["approx_arith_geometric"].value == pytest.approx(0.5)  # q*p*d = 0.5
    assert not rows["approx_simplified"].valid  # q*d = 1
    assert "outside validity" in rows["approx_simplified"].note
    assert rows["dp"].value == comparison.ruin_reference
    time_rows = {e.method: e for e in comparison.time_estimates}
    assert time_rows["classical_drift"].value is None  # divergent at p = 1/2
    assert "divergent" in time_rows["classical_drift"].note


def test_compare_methods_without_ruin_mass_gives_no_time_deviation():
    # q**d underflows at p = 0.999, d = 400, so the DP holds no ruin mass and
    # its censored mean, the time reference, is undefined
    comparison = compare_methods(lattice_config(0.999, 400, 40, 400, seed=3), max_gains=4)
    assert math.isnan(comparison.time_reference)
    time_rows = {e.method: e for e in comparison.time_estimates}
    assert time_rows["dp_censored_mean"].valid
    assert time_rows["dp_censored_mean"].value is None
    paper = time_rows["paper_estimator"]
    assert paper.valid and math.isfinite(paper.value)
    assert paper.abs_dev_from_dp is None


def test_compare_methods_drifted_case_agrees():
    comparison = compare_methods(lattice_config(0.6, 3, 50_000, 20_000, seed=12))
    rows = {e.method: e for e in comparison.ruin_estimates}
    assert rows["dp"].value == pytest.approx(8 / 27, abs=1e-6)
    assert rows["series_exact"].abs_dev_from_dp < 1e-5
    assert rows["closed_form_classical"].abs_dev_from_dp < 1e-6
    assert rows["monte_carlo"].abs_dev_from_dp < 5 * comparison.simulation.stderr
    assert rows["series_paper"].value > rows["series_exact"].value  # overcount
    time_rows = {e.method: e for e in comparison.time_estimates}
    assert time_rows["paper_estimator"].value == pytest.approx(4.551020408163265)
    json.dumps(_jsonable(comparison))

