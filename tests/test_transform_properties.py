"""Property test of probability rebalancing over legal models and targets."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from ruinlab import TrialModel, model_mean, rebalance

offsets = st.floats(1e-9, 1e6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(0.0, 1.0), st.floats(1e-6, 1e6),
       st.floats(-1.0, 0.0, exclude_min=True, exclude_max=True), offsets, offsets)
def test_rebalance_preserves_the_mean(p, gain_factor, loss_factor, above, below):
    model = TrialModel(p, gain_factor, loss_factor)
    mean = model_mean(model)
    gain, loss = mean + above, mean - below
    assume(loss < mean < gain)  # a small offset may round away against a large mean
    result = rebalance(model, gain, loss)
    rebalanced = result.p_gain_adjusted * gain + result.p_loss_adjusted * loss
    # relative to the legs: the mean is a sum of their products, and may be 0
    assert abs(rebalanced - mean) <= 1e-12 * max(gain, -loss)
