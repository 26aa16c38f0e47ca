"""Simulation engine: determinism, statistics against the DP oracle, and
the bankroll/lattice equivalence."""
import dataclasses
import json
import math

import numpy as np
import pytest

from ruinlab import (
    DomainError,
    SimConfig,
    TrialModel,
    bankroll_lattice_crosscheck,
    compare_methods,
    ruin_probability_dp,
    simulate,
)
from ruinlab.montecarlo import BATCH_TRIALS, _batch_sizes


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
    assert json.dumps(first.to_dict()) == json.dumps(parallel.to_dict())


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
    mean, std = result.time_stats()
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


def test_multiplicative_equivalence_with_shared_bits():
    model = TrialModel(p_gain=0.5, gain_factor=1.0, loss_factor=-0.5)
    lattice_steps, bankroll_steps = bankroll_lattice_crosscheck(
        model, 0.25, trials=2000, max_steps=512, seed=99
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


def test_config_has_only_the_fields_simulate_reads():
    names = [f.name for f in dataclasses.fields(SimConfig)]
    assert names == ["p", "distance", "trials", "max_steps", "seed", "workers"]
    assert SimConfig.for_lattice(0.6, 3, 10, 100, 42, 2) == SimConfig(0.6, 3, 10, 100, 42, 2)


def test_batch_sizes_cover_trials_exactly():
    assert _batch_sizes(1) == [1]
    assert _batch_sizes(BATCH_TRIALS) == [BATCH_TRIALS]
    sizes = _batch_sizes(2 * BATCH_TRIALS + 17)
    assert sizes == [BATCH_TRIALS, BATCH_TRIALS, 17]
    assert sum(_batch_sizes(123_456)) == 123_456


def test_simresult_serialization():
    result = simulate(lattice_config(0.0, 2, 10, 10, seed=1))
    payload = result.to_dict()
    assert payload["time_histogram"] == {"2": 10}
    assert payload["ruined"] == 10
    json.dumps(payload)
    empty = simulate(lattice_config(1.0, 2, 10, 10, seed=1)).to_dict()
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
    json.dumps(comparison.to_dict())

