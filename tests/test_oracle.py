"""DP oracle against exhaustive enumeration, closed forms, and the series."""
import math
from fractions import Fraction

import pytest

from ruinlab import (
    DomainError,
    expected_time_classical,
    expected_time_paper,
    ruin_probability_closed_form,
    ruin_probability_dp,
    ruin_series,
)
from ruinlab.cli import _jsonable
from ruinlab.oracle import first_passage_masses

from oracles import (
    first_passage_masses_reference,
    ruin_by_step_dp,
    ruin_probability_by_enumeration,
    ruin_time_distribution_by_enumeration,
    ruin_time_moments_given_ruin,
    survival_at_half_by_reflection,
)


def test_dp_deterministic_loss_run():
    result = ruin_probability_dp(0.0, 3, 3)
    assert result.ruin_probability_within_horizon == pytest.approx(1.0, abs=1e-15)
    assert result.expected_time_censored == pytest.approx(3.0, abs=1e-12)
    assert result.survival_mass == pytest.approx(0.0, abs=1e-15)


def test_dp_two_step_ruin():
    result = ruin_probability_dp(0.5, 2, 2)
    assert result.ruin_probability_within_horizon == pytest.approx(0.25, abs=1e-15)


def test_dp_hand_enumerated_censored_mean():
    # d=1, horizon 3: ruin paths are L (1/2) and GLL (1/8)
    result = ruin_probability_dp(0.5, 1, 3)
    assert result.ruin_probability_within_horizon == pytest.approx(0.625, abs=1e-15)
    assert result.expected_time_censored == pytest.approx(1.4, abs=1e-12)


@pytest.mark.parametrize(
    "p,d,horizon",
    [
        (Fraction(1, 2), 2, 8),
        (Fraction(3, 10), 3, 12),
        (Fraction(7, 10), 1, 9),
        (Fraction(2, 5), 2, 11),
    ],
)
def test_dp_equals_exhaustive_path_enumeration(p, d, horizon):
    expected = ruin_probability_by_enumeration(p, d, horizon)
    result = ruin_probability_dp(float(p), d, horizon)
    assert result.ruin_probability_within_horizon == pytest.approx(
        float(expected), abs=1e-12
    )


def test_dp_distribution_equals_exhaustive_enumeration():
    p = Fraction(2, 5)
    expected = ruin_time_distribution_by_enumeration(p, 2, 10)
    result = ruin_probability_dp(float(p), 2, 10, keep_distribution=True)
    assert result.ruin_time_distribution is not None
    assert set(result.ruin_time_distribution) == set(expected)
    for step, mass in expected.items():
        assert result.ruin_time_distribution[step] == pytest.approx(
            float(mass), abs=1e-14
        )


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_dp_equals_series_cumulative(p, d):
    # both enumerate ruin within d + 2N steps
    n_max = 15
    horizon = d + 2 * n_max
    series = ruin_series(p, d, n_max, "exact")
    ruin, _, _, _ = ruin_by_step_dp(p, d, horizon)
    assert ruin == pytest.approx(series.cumulative, abs=1e-10)


@pytest.mark.parametrize("horizon", ["d", "d+1", 312, 10_000])
@pytest.mark.parametrize("d", [1, 2, 3, 8])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.55, 1.0])
def test_dp_equals_step_dp_oracle(p, d, horizon):
    horizon = {"d": d, "d+1": d + 1}.get(horizon, horizon)
    ruin, mean, survival, distribution = ruin_by_step_dp(p, d, horizon)
    result = ruin_probability_dp(p, d, horizon, keep_distribution=True)
    assert result.ruin_probability_within_horizon == pytest.approx(ruin, abs=1e-12)
    assert result.survival_mass == pytest.approx(survival, abs=1e-12)
    if math.isnan(mean):
        assert math.isnan(result.expected_time_censored)
    else:
        assert result.expected_time_censored == pytest.approx(mean, rel=1e-9)
    kernel = result.ruin_time_distribution
    for step in set(kernel) | set(distribution):
        assert kernel.get(step, 0.0) == pytest.approx(
            distribution.get(step, 0.0), abs=1e-14
        ), step


def test_dp_large_distance_equals_step_dp_oracle():
    # q**d underflows to zero here while later masses do not
    p, d, horizon = 0.45, 1300, 100_000
    assert (1.0 - p) ** d == 0.0
    ruin, _, _, _ = ruin_by_step_dp(p, d, horizon)
    result = ruin_probability_dp(p, d, horizon)
    assert result.ruin_probability_within_horizon == pytest.approx(ruin, abs=1e-10)


def test_ruin_probability_never_exceeds_one():
    # the masses sum to 1 + 7e-13 here, because the float p + (1 - p) is not
    # exactly 1; the ruin probability is clamped so survival stays >= 0
    result = ruin_probability_dp(0.45, 1300, 100_000)
    assert result.ruin_probability_within_horizon <= 1.0
    assert 0.0 <= result.survival_mass
    assert result.expected_time_censored == pytest.approx(13_000, rel=1e-3)


def test_ruin_time_distribution_agrees_with_the_clamped_probability():
    # the raw masses sum to 1 + 7.3e-13 here; the kept masses are divided by
    # that sum, so the --distribution rows add up to the headline 1.0
    result = ruin_probability_dp(0.45, 1300, 100_000, keep_distribution=True)
    assert result.ruin_probability_within_horizon == 1.0
    assert abs(math.fsum(result.ruin_time_distribution.values()) - 1.0) <= 1e-15


def test_ruin_time_distribution_below_one_is_the_raw_masses():
    p, d, horizon = 0.55, 3, 2001
    masses = first_passage_masses(p, d, horizon)
    assert math.fsum(masses) < 1.0
    result = ruin_probability_dp(p, d, horizon, keep_distribution=True)
    raw = {d + 2 * n: m for n, m in enumerate(masses) if m}
    assert result.ruin_time_distribution == raw  # bit-identical, not rescaled


@pytest.mark.parametrize(
    "p, d, horizon",
    [
        (0.0, 3, 1000),
        (0.001, 2, 3000),
        (0.3, 5, 20_001),
        (0.45, 1300, 100_000),  # q**d underflows, later masses do not
        (0.49, 2, 300_000),
        (0.5 - 1e-9, 1, 100_001),
        (0.5, 3, 300_000),
        (0.6, 7, 50_000),
        (0.999, 2, 3000),
        (1.0, 4, 1000),
    ],
)
def test_kernel_is_bit_identical_to_the_plain_float_reference(p, d, horizon):
    # the reference a kernel without numpy must reproduce bit for bit
    assert first_passage_masses(p, d, horizon) == first_passage_masses_reference(p, d, horizon)


@pytest.mark.parametrize("horizon", [8, 9, 1001, 10_000, 100_000])
@pytest.mark.parametrize("d", [1, 3, 8])
def test_survival_at_one_half_matches_the_reflection_sum(d, horizon):
    # an exact reference that shares no code with the kernel: binomial
    # terms in integers, compared as rationals
    exact = survival_at_half_by_reflection(d, horizon)
    survival = ruin_probability_dp(0.5, d, horizon).survival_mass
    assert abs(Fraction(survival) - exact) <= exact * Fraction(1, 10**12)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("d", [1, 2, 7, 50, 300])
def test_horizon_of_exactly_d_is_the_straight_loss_run(p, d):
    # only the path of d straight losses ruins within d steps
    q_d = (1.0 - p) ** d
    dp = ruin_probability_dp(p, d, d)
    series = ruin_series(p, d, 0)
    assert dp.ruin_probability_within_horizon == series.cumulative
    if p in (0.0, 0.5, 1.0):  # powers of two: the product is exact
        assert dp.ruin_probability_within_horizon == q_d
    else:
        assert dp.ruin_probability_within_horizon == pytest.approx(q_d, rel=1e-13, abs=0)
    assert dp.survival_mass == 1.0 - dp.ruin_probability_within_horizon


@pytest.mark.parametrize(
    "p, d, horizon",
    [(0.6, 300, 20_000), (0.9, 300, 5_000)],  # about 1.49e-53 and 5.3e-287
)
def test_far_barrier_with_p_near_one_matches_the_closed_form(p, d, horizon):
    expected = ruin_probability_closed_form(p, d)
    assert 0.0 < expected
    dp = ruin_probability_dp(p, d, horizon)
    series = ruin_series(p, d, (horizon - d) // 2)
    assert dp.ruin_probability_within_horizon == pytest.approx(expected, rel=1e-12, abs=0)
    assert series.cumulative == pytest.approx(expected, rel=1e-12, abs=0)


def test_far_barrier_below_the_double_range_is_exactly_zero():
    # (q/p)**d is about 1e-1200 at p = 0.999, d = 400
    assert ruin_probability_closed_form(0.999, 400) == 0.0
    dp = ruin_probability_dp(0.999, 400, 20_000)
    series = ruin_series(0.999, 400, 10_000)
    assert dp.ruin_probability_within_horizon == 0.0
    assert dp.survival_mass == 1.0
    assert series.cumulative == 0.0
    assert all(term.probability == 0.0 for term in series.terms)


def test_ruin_time_distribution_only_on_reachable_steps():
    # the step DP's saturating band top once leaked tiny masses onto steps
    # of the wrong parity (89,972 keys here, where 50,000 are reachable)
    d, horizon = 2, 100_000
    result = ruin_probability_dp(0.5, d, horizon, keep_distribution=True)
    steps = result.ruin_time_distribution
    assert len(steps) == (horizon - d) // 2 + 1
    assert all(d <= t <= horizon and (t - d) % 2 == 0 for t in steps)


def test_dp_monotone_in_horizon_and_p():
    values = [
        ruin_probability_dp(0.45, 3, h).ruin_probability_within_horizon
        for h in (3, 5, 11, 25, 101, 1001)
    ]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
    by_p = [
        ruin_probability_dp(p, 3, 501).ruin_probability_within_horizon
        for p in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    ]
    assert all(a >= b - 1e-15 for a, b in zip(by_p, by_p[1:]))


def test_dp_conserves_mass():
    for p, d, horizon in [(0.3, 2, 1000), (0.5, 3, 10_000), (0.62, 1, 10_000)]:
        result = ruin_probability_dp(p, d, horizon)
        total = result.ruin_probability_within_horizon + result.survival_mass
        assert total == pytest.approx(1.0, abs=1e-12)


def test_dp_converges_to_classical_closed_form():
    # slowest spec case: drift barely away from the barrier, long horizon
    result = ruin_probability_dp(0.55, 3, 1_000_000)
    assert result.ruin_probability_within_horizon == pytest.approx(
        ruin_probability_closed_form(0.55, 3), abs=1e-5
    )
    for p, d in [(0.6, 1), (0.6, 3), (0.7, 2)]:
        result = ruin_probability_dp(p, d, 100_000)
        assert result.ruin_probability_within_horizon == pytest.approx(
            ruin_probability_closed_form(p, d), abs=1e-5
        )


def test_dp_example_agrees_with_classical():
    result = ruin_probability_dp(0.6, 3, 4000)
    assert result.ruin_probability_within_horizon == pytest.approx(
        8 / 27, abs=1e-6
    )


def test_dp_degenerate_all_gain():
    result = ruin_probability_dp(1.0, 2, 100)
    assert result.ruin_probability_within_horizon == 0.0
    assert result.survival_mass == pytest.approx(1.0, abs=1e-15)
    assert math.isnan(result.expected_time_censored)


def test_dp_input_validation():
    with pytest.raises(DomainError):
        ruin_probability_dp(0.5, 3, 2)  # horizon < d
    with pytest.raises(DomainError):
        ruin_probability_dp(1.5, 3, 10)
    with pytest.raises(DomainError):
        ruin_probability_dp(0.5, 0, 10)


def test_closed_form_examples():
    assert ruin_probability_closed_form(0.5, 7) == 1.0
    assert ruin_probability_closed_form(1.0, 1) == 0.0
    assert ruin_probability_closed_form(0.0, 4) == 1.0
    assert ruin_probability_closed_form(0.6, 2) == pytest.approx(4 / 9)
    assert ruin_probability_closed_form(0.6, 3) == pytest.approx(8 / 27)


def test_expected_time_paper_examples():
    # literal evaluations of (d-1)/(1 - p**d) + (d-1)
    assert expected_time_paper(0.0, 3) == pytest.approx(4.0)
    assert expected_time_paper(0.5, 10) == pytest.approx(18.008797653958944)
    assert expected_time_paper(0.5, 2) == pytest.approx(7 / 3)
    assert expected_time_paper(0.4, 3) == pytest.approx(4.136752136752137)
    with pytest.raises(DomainError):
        expected_time_paper(1.0, 3)


def test_expected_time_paper_disagrees_with_truth_at_p_zero():
    # the estimator reads 2(d-1) where the true deterministic ruin time is d;
    # it is reported in comparisons, never asserted against the oracles
    d = 5
    assert expected_time_paper(0.0, d) == pytest.approx(2 * (d - 1))
    assert ruin_probability_dp(0.0, d, 10).expected_time_censored == pytest.approx(
        float(d), abs=1e-12
    )


def test_expected_time_classical():
    assert expected_time_classical(0.0, 5) == pytest.approx(5.0)
    assert expected_time_classical(0.4, 3) == pytest.approx(15.0)
    assert math.isinf(expected_time_classical(0.5, 2))
    # the mean given ruin: p > 1/2 mirrors p < 1/2
    assert expected_time_classical(0.9, 2) == pytest.approx(2.5)
    with pytest.raises(DomainError):
        expected_time_classical(1.0, 2)  # nothing ruins


@pytest.mark.parametrize("p", [0.55, 0.6, 0.7])
def test_expected_time_classical_above_half_is_d_over_drift(p):
    for d in (1, 3, 10):
        assert expected_time_classical(p, d) == d / (2.0 * p - 1.0)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.4, 0.45, 0.49, 0.4999])
def test_expected_time_classical_below_half_keeps_its_bits(p):
    for d in (1, 3, 10, 1300):
        assert expected_time_classical(p, d) == d / (1.0 - 2.0 * p)


@pytest.mark.parametrize("p, d", [(0.6, 3), (0.4, 3), (0.7, 10), (0.45, 5), (0.3, 1),
                                  (0.49, 4), (0.51, 4)])
def test_kernel_moments_given_ruin_match_the_closed_forms(p, d):
    # at H = 4e5 the mass left out is far below 1e-15 even at p = 0.49
    horizon = 400_000
    masses = first_passage_masses(p, d, horizon)
    steps = range(d, horizon + 1, 2)
    total = math.fsum(masses)
    mean = math.fsum(s * m for s, m in zip(steps, masses)) / total
    variance = math.fsum((s - mean) ** 2 * m for s, m in zip(steps, masses)) / total
    exact_mean, exact_variance = ruin_time_moments_given_ruin(p, d)
    assert mean == pytest.approx(float(exact_mean), rel=1e-9)
    assert variance == pytest.approx(float(exact_variance), rel=1e-9)
    assert expected_time_classical(p, d) == pytest.approx(float(exact_mean), rel=1e-15)


def test_expected_time_censored_dp_matches_classical_drift():
    mean = ruin_probability_dp(0.4, 3, 10_000).expected_time_censored
    assert mean == pytest.approx(15.0, abs=0.01)


def test_ruin_times_share_distance_parity():
    result = ruin_probability_dp(0.45, 3, 41, keep_distribution=True)
    assert result.ruin_time_distribution
    for step in result.ruin_time_distribution:
        assert step % 2 == 1  # same parity as d = 3


def test_absorption_result_serialization():
    result = ruin_probability_dp(0.5, 2, 10, keep_distribution=True)
    payload = _jsonable(result)
    assert payload["horizon"] == 10
    assert payload["ruin_time_distribution"][2] == pytest.approx(0.25)
    no_dist = _jsonable(ruin_probability_dp(1.0, 2, 10))
    assert no_dist["expected_time_censored"] is None
    assert no_dist["ruin_time_distribution"] is None
