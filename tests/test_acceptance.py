"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v`` for the one-line-per-criterion
view; with ``-s`` the PASS lines below print live.
"""
import json
import math
import time

import numpy as np
import pytest

from ruinlab import (
    TrialModel,
    SimConfig,
    calibrate,
    compare_methods,
    exact_coefficient,
    expected_time_paper,
    paper_coefficient,
    ruin_probability_dp,
    ruin_series,
    simulate,
)
from ruinlab.cli import main

from oracles import bankroll_lattice_crosscheck, first_passage_count, time_stats


def _report(number: int, label: str, detail: str) -> None:
    print(f"[criterion {number:2d}] {label}: PASS ({detail})")


def test_criterion_01_distance_calibration(capsys):
    code = main(["calibrate", "--loss-level", "0.25", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["result"]["distance"] == 2

    start = time.perf_counter()
    spec = calibrate(0.25, -0.5)
    elapsed = time.perf_counter() - start
    assert spec.distance == 2
    assert elapsed < 1e-3
    _report(1, "distance calibration", f"distance=2, {elapsed * 1e6:.0f} us")


def test_criterion_02_coefficient_agreement_region():
    start = time.perf_counter()
    for d in range(1, 7):
        for n_gains in range(3):
            brute = first_passage_count(d, n_gains)
            assert paper_coefficient(d, n_gains) == brute, (d, n_gains)
            assert exact_coefficient(d, n_gains) == brute, (d, n_gains)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, "coefficient agreement for N <= 2", f"18 cells, {elapsed:.2f} s")


def test_criterion_03_coefficient_divergence_documented():
    brute = first_passage_count(2, 3)
    assert paper_coefficient(2, 3) == 16
    assert exact_coefficient(2, 3) == 14
    assert brute == 14
    # the comparison surface (mode-labelled series reports) shows both counts
    paper_report = ruin_series(0.5, 2, 3, "paper")
    exact_report = ruin_series(0.5, 2, 3, "exact")
    assert paper_report.terms[3].path_count == 16
    assert exact_report.terms[3].path_count == 14
    assert paper_report.coefficient_mode == "paper"
    assert exact_report.coefficient_mode == "exact"
    _report(3, "coefficient divergence at d=2, N=3", "paper=16, exact=brute=14")


def test_criterion_04_series_and_dp_converge_to_classical():
    target = (0.4 / 0.6) ** 3
    start = time.perf_counter()
    report = ruin_series(0.6, 3, 200, "exact")
    dp = ruin_probability_dp(0.6, 3, 4000)
    elapsed = time.perf_counter() - start
    series_dev = abs(report.cumulative - target)
    dp_dev = abs(dp.ruin_probability_within_horizon - target)
    assert series_dev <= 1e-6
    assert dp_dev <= 1e-6
    assert elapsed < 5.0
    _report(
        4,
        "series and DP vs classical closed form",
        f"series dev {series_dev:.2e}, DP dev {dp_dev:.2e}, {elapsed:.2f} s",
    )


def test_criterion_05_certain_ruin_at_fair_odds():
    start = time.perf_counter()
    result = ruin_probability_dp(0.5, 2, 1_000_000)
    elapsed = time.perf_counter() - start
    assert result.ruin_probability_within_horizon >= 0.998
    assert elapsed < 30.0
    _report(
        5,
        "certain ruin at fair odds",
        f"ruin {result.ruin_probability_within_horizon:.6f} at horizon 1e6, "
        f"{elapsed:.1f} s",
    )


def test_criterion_06_monte_carlo_vs_closed_form():
    target = (0.4 / 0.6) ** 3
    start = time.perf_counter()
    single = simulate(SimConfig(0.6, 3, 1_000_000, 100_000, seed=20130815, workers=1))
    single_elapsed = time.perf_counter() - start
    deviation = abs(single.ruin_frequency - target)
    assert deviation <= 4 * single.stderr
    assert single_elapsed < 60.0

    start = time.perf_counter()
    parallel = simulate(
        SimConfig(0.6, 3, 1_000_000, 100_000, seed=20130815, workers=8)
    )
    parallel_elapsed = time.perf_counter() - start
    assert parallel == single
    assert parallel_elapsed < 60.0
    _report(
        6,
        "Monte Carlo vs closed form",
        f"|dev| {deviation:.2e} <= 4*stderr {4 * single.stderr:.2e}, "
        f"bit-identical across 1/8 workers, {single_elapsed:.0f}+"
        f"{parallel_elapsed:.0f} s",
    )


def test_criterion_07_expected_time_benchmark():
    comparison = compare_methods(SimConfig(0.4, 3, 1_000_000, 10_000, seed=5150))
    mean, std = time_stats(comparison.simulation.time_histogram)
    se = std / math.sqrt(comparison.simulation.ruined)
    assert abs(mean - 15.0) <= 3 * se

    rows = {e.method: e for e in comparison.time_estimates}
    estimator = rows["paper_estimator"].value
    assert estimator == pytest.approx(expected_time_paper(0.4, 3), abs=1e-12)
    assert estimator == pytest.approx(4.136752136752137, abs=1e-12)
    # the estimator is printed with its deviation visible, never asserted
    # against the oracles
    assert rows["paper_estimator"].abs_dev_from_dp is not None
    _report(
        7,
        "expected-time benchmark",
        f"MC mean {mean:.4f} within 3*se {3 * se:.4f} of 15; "
        f"estimator reports {estimator:.4f}",
    )


def test_criterion_08_transform_worked_example():
    from ruinlab import rebalance

    result = rebalance(TrialModel(0.5, 0.75, -0.75), 0.75, -0.25)
    assert result.p_loss_adjusted == 0.75
    rebalanced_mean = (
        result.p_gain_adjusted * result.target_gain_factor
        + result.p_loss_adjusted * result.target_loss_factor
    )
    assert abs(rebalanced_mean - result.matched_mean) <= 1e-12
    _report(8, "risk-neutral rebalancing", "p_loss_adjusted = 0.75 exactly")


def test_criterion_09_multiplicative_lattice_equivalence():
    model = TrialModel(p_gain=0.5, gain_factor=1.0, loss_factor=-0.5)
    start = time.perf_counter()
    distance = calibrate(0.25, model.loss_factor).distance
    lattice_steps, bankroll_steps = bankroll_lattice_crosscheck(
        model, 0.25, distance, trials=10_000, max_steps=2048, seed=424242
    )
    elapsed = time.perf_counter() - start
    assert np.array_equal(lattice_steps, bankroll_steps)
    assert elapsed < 5.0
    ruined = int((lattice_steps > 0).sum())
    _report(
        9,
        "bankroll/lattice equivalence",
        f"10000 paired trials identical ({ruined} ruined), {elapsed:.2f} s",
    )


def test_criterion_10_ruin_time_parity():
    checked = 0
    for p, d, seed in [(0.5, 2, 1), (0.35, 3, 2), (0.6, 4, 3), (0.55, 1, 4)]:
        result = simulate(SimConfig(p, d, 40_000, 2000, seed=seed))
        assert result.time_histogram
        for step in result.time_histogram:
            assert (step - d) % 2 == 0
        checked += len(result.time_histogram)
    _report(10, "ruin-time parity", f"{checked} distinct ruin times, all t = d (mod 2)")
