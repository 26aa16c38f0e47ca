"""Property tests of the exact engines over the legal domain at small
horizons: the first-passage kernel's horizon oracle against the step DP,
monotonicity, parity, and the exact-mode series."""
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ruinlab import ruin_probability_dp, ruin_series

from oracles import ruin_by_step_dp

probabilities = st.floats(0.0, 1.0)
distances = st.integers(1, 60)


@st.composite
def walks(draw):
    """(p, d, horizon) with a horizon of d .. d + 400 steps."""
    d = draw(distances)
    return draw(probabilities), d, d + draw(st.integers(0, 400))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(walks())
def test_horizon_oracle_matches_the_step_dp(walk):
    p, d, horizon = walk
    ruin, mean, _, _ = ruin_by_step_dp(p, d, horizon)
    result = ruin_probability_dp(p, d, horizon)
    assert result.ruin_probability_within_horizon == pytest.approx(ruin, abs=1e-12)
    if math.isnan(mean):
        assert math.isnan(result.expected_time_censored)
    else:
        assert result.expected_time_censored == pytest.approx(mean, rel=1e-9)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(walks(), st.integers(0, 400))
def test_ruin_probability_rises_with_the_horizon(walk, extra):
    p, d, horizon = walk
    shorter = ruin_probability_dp(p, d, horizon).ruin_probability_within_horizon
    longer = ruin_probability_dp(p, d, horizon + extra).ruin_probability_within_horizon
    assert shorter <= longer + 1e-15


@settings(max_examples=150, deadline=None, derandomize=True)
@given(walks(), probabilities)
def test_ruin_probability_falls_with_p(walk, other):
    p, d, horizon = walk
    low, high = sorted((p, other))
    at_low = ruin_probability_dp(low, d, horizon).ruin_probability_within_horizon
    at_high = ruin_probability_dp(high, d, horizon).ruin_probability_within_horizon
    assert at_high <= at_low + 1e-15


@settings(max_examples=150, deadline=None, derandomize=True)
@given(walks())
def test_ruin_times_have_the_parity_of_d(walk):
    p, d, horizon = walk
    distribution = ruin_probability_dp(p, d, horizon, keep_distribution=True)
    for step in distribution.ruin_time_distribution:
        assert d <= step <= horizon
        assert (step - d) % 2 == 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(walks())
def test_exact_series_matches_the_step_dp(walk):
    # the exact-mode cumulative at N is ruin within d + 2N steps
    p, d, horizon = walk
    ruin, _, _, _ = ruin_by_step_dp(p, d, horizon)
    series = ruin_series(p, d, (horizon - d) // 2, "exact")
    assert series.cumulative == pytest.approx(ruin, abs=1e-10)
