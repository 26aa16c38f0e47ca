"""Series coefficients against exhaustive path enumeration, plus the
closed-form approximations."""
import json
import math
from fractions import Fraction

import pytest

from ruinlab import (
    DomainError,
    ValidityError,
    approx_arith_geometric,
    approx_simplified,
    exact_coefficient,
    paper_coefficient,
    paper_final_form,
    ruin_probability_closed_form,
    ruin_series,
)
from ruinlab.cli import _jsonable
from ruinlab.series import MAX_SERIES_DIGITS, _count_digits_bound

from oracles import (
    GAIN,
    LOSS,
    enumerate_first_passage_paths,
    first_passage_count,
    series_cumulative_by_rational_sum,
)


# ----------------------------------------------------------------------
# coefficients
# ----------------------------------------------------------------------


def test_paper_coefficient_examples():
    assert paper_coefficient(2, 1) == 2
    for d in range(1, 10):
        assert paper_coefficient(d, 0) == 1
    assert paper_coefficient(2, 2) == 5  # C(4,2) - C(2,2)
    assert paper_coefficient(2, 3) == 16  # C(6,3) - C(4,3); true count is 14


def test_exact_coefficient_examples():
    assert exact_coefficient(1, 0) == 1
    assert exact_coefficient(2, 2) == 5
    assert exact_coefficient(2, 3) == 14


def test_coefficient_domain_errors():
    for fn in (paper_coefficient, exact_coefficient):
        with pytest.raises(DomainError):
            fn(0, 1)
        with pytest.raises(DomainError):
            fn(3, -1)


def test_exact_coefficient_equals_brute_force_enumeration():
    # every 2**(d+2N) sequence, d <= 6, N <= 6
    for d in range(1, 7):
        for n_gains in range(7):
            assert exact_coefficient(d, n_gains) == first_passage_count(d, n_gains), (
                d,
                n_gains,
            )


def test_every_ruin_path_ends_with_a_loss():
    # the final trial must be a loss, and with any gains at all the last
    # gain comes strictly before the final step; for paths of length >= 2
    # the penultimate step is a loss as well
    for d in range(1, 5):
        for n_gains in range(4):
            for path in enumerate_first_passage_paths(d, n_gains):
                assert path[-1] == LOSS
                if n_gains >= 1:
                    last_gain = max(i for i, s in enumerate(path) if s == GAIN)
                    assert last_gain < len(path) - 1
                if len(path) >= 2:
                    assert path[-2] == LOSS


def test_series_counts_equal_single_term_coefficients():
    # the series builds all counts by recurrence; each must equal the
    # coefficient computed from scratch
    for d in range(1, 9):
        for mode, fn in (("exact", exact_coefficient), ("paper", paper_coefficient)):
            report = ruin_series(0.5, d, 300, mode)
            assert [t.path_count for t in report.terms] == [fn(d, n) for n in range(301)]


def test_agreement_region_and_overcount():
    for d in range(1, 7):
        for n_gains in range(3):
            assert paper_coefficient(d, n_gains) == exact_coefficient(d, n_gains)
        for n_gains in range(3, 7):
            assert paper_coefficient(d, n_gains) >= exact_coefficient(d, n_gains)


# ----------------------------------------------------------------------
# series
# ----------------------------------------------------------------------


def test_series_single_term():
    report = ruin_series(0.5, 2, 0, "exact")
    assert len(report.terms) == 1
    assert report.terms[0].probability == pytest.approx(0.25)
    assert report.cumulative == pytest.approx(0.25)


def test_series_two_terms_matches_length_four_enumeration():
    # brute force over all length-4 sequences: ruin within 4 steps = 0.375
    report = ruin_series(0.5, 2, 1, "exact")
    assert report.terms[1].probability == pytest.approx(0.125)
    assert report.cumulative == pytest.approx(0.375)


def test_series_terms_match_exact_rational_sums():
    for mode in ("exact", "paper"):
        fn = exact_coefficient if mode == "exact" else paper_coefficient
        for p in (Fraction(3, 10), Fraction(1, 2), Fraction(3, 4)):
            for d in (1, 3):
                counts = [fn(d, n) for n in range(21)]
                expected = series_cumulative_by_rational_sum(p, d, 20, counts)
                report = ruin_series(float(p), d, 20, mode)
                assert report.cumulative == pytest.approx(float(expected), abs=1e-13)


def test_series_convergence_to_classical_closed_form():
    report = ruin_series(0.6, 3, 200, "exact")
    assert report.cumulative == pytest.approx((0.4 / 0.6) ** 3, abs=1e-6)


def test_series_deficit_is_within_reported_tail_bound():
    # near p = 1/2 the series converges too slowly for any fixed truncation
    # to pin the closed form tightly; what must always hold is that the
    # actual omitted mass stays below the reported geometric tail bound
    for p in (0.4, 0.45, 0.5, 0.55, 0.6, 0.75):
        for d in range(1, 7):
            report = ruin_series(p, d, 400, "exact")
            deficit = ruin_probability_closed_form(p, d) - report.cumulative
            assert deficit >= -1e-9
            assert deficit <= report.tail_bound + 1e-9


def test_series_fast_cases_hit_closed_form_at_400_terms():
    for p in (0.4, 0.6, 0.75):
        for d in range(1, 7):
            report = ruin_series(p, d, 400, "exact")
            assert report.cumulative == pytest.approx(
                ruin_probability_closed_form(p, d), abs=1e-6
            )


def test_series_cumulative_monotone_bounded_nonnegative():
    for p in (0.0, 0.3, 0.5, 0.8, 1.0):
        report = ruin_series(p, 2, 150, "exact")
        previous = 0.0
        for term in report.terms:
            assert term.probability >= 0.0
            assert term.cumulative >= previous - 1e-15
            previous = term.cumulative
        assert report.cumulative <= 1.0 + 1e-9


def test_series_degenerate_probabilities():
    all_loss = ruin_series(0.0, 3, 10, "exact")
    assert all_loss.terms[0].probability == 1.0
    assert all_loss.cumulative == 1.0
    assert all_loss.tail_bound == 0.0
    all_gain = ruin_series(1.0, 3, 10, "exact")
    assert all_gain.cumulative == 0.0
    assert all_gain.tail_bound == 0.0


def test_series_log_space_handoff_is_smooth():
    # path length d + 2N crosses 300 inside this report (paper mode's old
    # log-space threshold); terms on both sides, in both modes, must agree
    # with exact rational evaluation
    p = Fraction(45, 100)
    d = 4
    q = 1 - p
    for mode, coefficient in (("exact", exact_coefficient), ("paper", paper_coefficient)):
        report = ruin_series(float(p), d, 180, mode)
        for n_gains in (140, 147, 148, 149, 155, 180):
            exact_term = float(coefficient(d, n_gains) * q ** (d + n_gains) * p**n_gains)
            assert report.terms[n_gains].probability == pytest.approx(exact_term, rel=1e-9)


@pytest.mark.parametrize(
    "p, d, max_gains",
    [(Fraction(31, 64), 5, 1000), (Fraction(7, 16), 1, 1000), (Fraction(19, 32), 8, 1400),
     (Fraction(1, 1024), 2, 300)],
    ids=["p31_64-d5", "p7_16-d1", "p19_32-d8", "p1_1024-d2"],
)
def test_paper_mode_terms_match_exact_rationals(p, d, max_gains):
    # dyadic p is exact as a float, so every term has an exact rational value;
    # at p = 1/1024 the terms for N = 108-123 lie between 1e-262 and 1e-300,
    # normal doubles that must not underflow to zero
    report = ruin_series(float(p), d, max_gains, "paper")
    q = 1 - p
    for term in report.terms:
        n = term.n_gains
        exact_term = float(paper_coefficient(d, n) * q ** (d + n) * p**n)
        if exact_term > 1e-300:
            assert term.probability == pytest.approx(exact_term, rel=1e-13, abs=0), n


def test_series_ordering_and_gaplessness():
    report = ruin_series(0.42, 3, 37, "paper")
    assert [t.n_gains for t in report.terms] == list(range(38))
    assert report.truncation == 37
    assert report.coefficient_mode == "paper"


def test_series_tail_bound_divergent_ratio_is_infinite():
    # single computed term: no ratio to extrapolate from
    assert math.isinf(ruin_series(0.5, 2, 0, "exact").tail_bound)
    # at p = 1/2 the asymptotic term ratio is 1: no geometric envelope
    assert math.isinf(ruin_series(0.5, 3, 400, "exact").tail_bound)
    # away from 1/2 the envelope is finite
    assert math.isfinite(ruin_series(0.45, 3, 400, "exact").tail_bound)


def test_series_report_serialization():
    report = ruin_series(0.5, 2, 3, "exact")
    payload = _jsonable(report)
    assert list(payload) == [
        "p_gain", "distance", "coefficient_mode", "truncation", "cumulative",
        "tail_bound", "terms",
    ]
    assert payload["coefficient_mode"] == "exact"
    assert payload["cumulative"] == report.terms[-1].cumulative
    assert payload["tail_bound"] is None  # no geometric envelope at p = 1/2
    assert payload["terms"][3] == {
        "n_gains": 3, "path_count": 14, "probability": report.terms[3].probability,
        "cumulative": report.terms[3].cumulative,
    }
    json.dumps(payload)  # JSON-ready all the way down


def test_series_input_validation():
    with pytest.raises(DomainError):
        ruin_series(1.2, 2, 10)
    with pytest.raises(DomainError):
        ruin_series(0.5, 0, 10)
    with pytest.raises(DomainError):
        ruin_series(0.5, 2, -1)
    with pytest.raises(DomainError):
        ruin_series(0.5, 2, 10, "banana")


@pytest.mark.parametrize("d, max_gains", [(1, 300), (3, 300), (8, 300), (1000, 300),
                                           (2**59, 100)])  # lgamma cancels at 2**59
@pytest.mark.parametrize("count", [exact_coefficient, paper_coefficient])
def test_count_digits_bound_covers_every_count(count, d, max_gains):
    digits = 0
    for n in range(max_gains + 1):
        digits += len(str(count(d, n)))
        if n >= 1:
            assert _count_digits_bound(d, n) >= digits, n


def test_oversized_series_fails_before_building_counts():
    # 50 000 gains would build 360 MB of counts before any output
    with pytest.raises(DomainError, match="max_gains"):
        ruin_series(0.5, 3, 50_000)
    # the admitted edges the docstring states
    for d, edge in ((3, 10390), (10**6, 4860)):
        assert _count_digits_bound(d, edge) <= MAX_SERIES_DIGITS < _count_digits_bound(d, edge + 1)


# ----------------------------------------------------------------------
# approximations
# ----------------------------------------------------------------------


def test_arith_geometric_examples():
    assert approx_arith_geometric(1.0, 5) == 0.0
    assert approx_arith_geometric(0.5, 1) == pytest.approx(0.5 / 0.75)
    assert approx_arith_geometric(0.9, 10) == pytest.approx(1e-9, rel=1e-9)


def test_arith_geometric_validity_region():
    with pytest.raises(ValidityError):
        approx_arith_geometric(0.5, 4)  # q*p*d = 1
    with pytest.raises(ValidityError):
        approx_arith_geometric(0.5, 5)


def test_simplified_examples():
    assert approx_simplified(1.0, 3) == 0.0
    assert approx_simplified(0.9, 5) == pytest.approx(2e-5)
    assert approx_simplified(0.6, 2) == pytest.approx(0.8)


def test_simplified_validity_region():
    # q >= 1/2 with d >= 2 always lands outside
    with pytest.raises(ValidityError):
        approx_simplified(0.5, 2)
    with pytest.raises(ValidityError):
        approx_simplified(0.3, 3)


def test_paper_final_form_examples():
    assert paper_final_form(1.0, 4) == 0.0
    assert paper_final_form(0.5, 2) == pytest.approx(0.0625)
    assert paper_final_form(0.6, 3) == pytest.approx(0.013824)
