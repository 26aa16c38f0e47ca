"""Probability rebalancing onto new gain/loss legs."""
import json
import math
import random

import pytest

from ruinlab import (
    DomainError,
    InfeasibleTargetError,
    TrialModel,
    model_mean,
    rebalance,
    rebalanced_ruin_inputs,
)
from ruinlab.cli import _jsonable
from ruinlab.transform import WARN_GAIN_BELOW_HALF, WARN_LOG_ASYMMETRIC_LEGS, WARN_SMALL_DISTANCE


def test_model_mean_examples():
    assert model_mean(TrialModel(0.5, 0.75, -0.75)) == pytest.approx(0.0, abs=1e-15)
    assert model_mean(TrialModel(1.0, 1.0, -0.5)) == pytest.approx(1.0)
    assert model_mean(TrialModel(0.5, 1.0, -0.5)) == pytest.approx(0.25)


def test_rebalance_worked_example():
    # 50-50 at +-75% onto +75%/-25% legs: the loss probability comes out 75%
    result = rebalance(TrialModel(0.5, 0.75, -0.75), 0.75, -0.25)
    assert result.p_loss_adjusted == 0.75
    assert result.p_gain_adjusted == 0.25
    assert result.matched_mean == pytest.approx(0.0, abs=1e-15)
    rebalanced_mean = (
        result.p_gain_adjusted * 0.75 + result.p_loss_adjusted * -0.25
    )
    assert rebalanced_mean == pytest.approx(result.matched_mean, abs=1e-12)


def test_rebalance_symmetric_targets_of_zero_mean_model():
    for x in (0.25, 0.5, 0.9):
        result = rebalance(TrialModel(0.5, 0.6, -0.6), x, -x)
        assert result.p_loss_adjusted == pytest.approx(0.5, abs=1e-12)


def test_rebalance_asymmetric_example():
    result = rebalance(TrialModel(0.5, 1.0, -1.0 + 1e-15), 1.0, -0.5)
    assert result.p_loss_adjusted == pytest.approx(2 / 3, rel=1e-9)
    assert result.p_gain_adjusted == pytest.approx(1 / 3, rel=1e-9)


def test_rebalance_preserves_mean_and_bounds():
    rng = random.Random(7)
    for _ in range(200):
        model = TrialModel(
            p_gain=rng.uniform(0.05, 0.95),
            gain_factor=rng.uniform(0.05, 2.0),
            loss_factor=rng.uniform(-0.95, -0.05),
        )
        mean = model_mean(model)
        gain = rng.uniform(mean + 0.01, mean + 2.0)
        loss = rng.uniform(mean - 2.0, mean - 0.01)
        result = rebalance(model, gain, loss)
        assert 0.0 < result.p_loss_adjusted < 1.0
        assert 0.0 < result.p_gain_adjusted < 1.0
        assert result.p_loss_adjusted + result.p_gain_adjusted == pytest.approx(
            1.0, abs=1e-12
        )
        rebalanced_mean = result.p_gain_adjusted * gain + result.p_loss_adjusted * loss
        assert rebalanced_mean == pytest.approx(mean, abs=1e-12)


@pytest.mark.parametrize(
    "model, gain, loss, p_loss",
    [
        # the legs' spread overflows: p_loss_adjusted used to read 0.0, and
        # `transform` printed it with exit 0
        (TrialModel(0.5, 1e308, -0.5), 1.5e308, -1e308, 0.4),
        (TrialModel(0.5, 1.7e308, -0.5), 1.7e308, -1.7e308, 0.25),
        # subnormal legs: halving them would round both to zero
        (TrialModel(0.5, 0.5, -0.5), 5e-324, -5e-324, 0.5),
    ],
    ids=["overflowing-spread", "largest-legs", "subnormal-legs"],
)
def test_rebalance_solves_legs_at_the_ends_of_the_double_range(model, gain, loss, p_loss):
    result = rebalance(model, gain, loss)
    assert result.p_loss_adjusted == pytest.approx(p_loss, rel=1e-15)
    assert result.p_gain_adjusted == pytest.approx(1.0 - p_loss, rel=1e-15)
    # the mean, from halved legs so no product overflows
    half_mean = result.p_gain_adjusted * (gain / 2) + result.p_loss_adjusted * (loss / 2)
    assert half_mean == pytest.approx(result.matched_mean / 2, rel=1e-15, abs=1e-323)


def test_rebalance_identity_on_original_legs():
    for p in (0.2, 0.5, 0.8):
        model = TrialModel(p, 0.75, -0.4)
        result = rebalance(model, model.gain_factor, model.loss_factor)
        assert result.p_gain_adjusted == pytest.approx(p, abs=1e-12)
        assert result.p_loss_adjusted == pytest.approx(1 - p, abs=1e-12)


def test_rebalance_infeasible_targets_raise_both_sides():
    model = TrialModel(0.5, 0.75, -0.75)  # mean 0
    with pytest.raises(InfeasibleTargetError):
        rebalance(model, 0.5, 0.1)  # both legs above the mean
    with pytest.raises(InfeasibleTargetError):
        rebalance(model, -0.1, -0.5)  # both legs below the mean
    with pytest.raises(InfeasibleTargetError):
        rebalance(model, 0.5, 0.0)  # mean exactly on a leg
    with pytest.raises(DomainError):
        rebalance(model, -0.25, 0.75)  # legs out of order


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, float("1e400")])
@pytest.mark.parametrize("field", ["target_gain_factor", "target_loss_factor"])
def test_rebalance_rejects_non_finite_targets(field, value):
    # an infinite target gain leg used to give p_loss_adjusted = nan
    targets = {"target_gain_factor": 0.75, "target_loss_factor": -0.25, field: value}
    with pytest.raises(DomainError, match=field):
        rebalance(TrialModel(0.5, 0.75, -0.75), **targets)


def test_rebalanced_ruin_inputs_worked_example():
    result = rebalance(TrialModel(0.5, 0.75, -0.75), 0.75, -0.25)
    inputs = rebalanced_ruin_inputs(result, 0.25)
    assert inputs.p_gain == pytest.approx(0.25)
    assert inputs.distance_exact == pytest.approx(4.818841679306418, abs=1e-12)
    assert inputs.distance == 5
    assert WARN_GAIN_BELOW_HALF in inputs.warnings
    assert WARN_SMALL_DISTANCE not in inputs.warnings  # distance 5 is not < 5


def test_rebalanced_ruin_inputs_symmetric_no_probability_warning():
    x = 0.3
    result = rebalance(TrialModel(0.5, x, -x), x, -x)
    inputs = rebalanced_ruin_inputs(result, (1 - x) ** 2)
    assert inputs.distance == 2
    assert WARN_GAIN_BELOW_HALF not in inputs.warnings
    assert WARN_SMALL_DISTANCE in inputs.warnings


def test_rebalanced_ruin_inputs_zero_mean_asymmetric():
    result = rebalance(TrialModel(0.5, 1.0 - 1e-12, -(1.0 - 1e-12)), 1.0, -0.5)
    inputs = rebalanced_ruin_inputs(result, 0.25)
    assert inputs.p_gain == pytest.approx(1 / 3, rel=1e-9)
    assert inputs.distance == 2
    assert WARN_GAIN_BELOW_HALF in inputs.warnings
    assert WARN_SMALL_DISTANCE in inputs.warnings


def test_rebalanced_ruin_inputs_rejects_nonnegative_target_loss():
    # rebalancing onto two gain legs is legal, but no ruin distance exists
    # for a "loss" leg that never loses
    model = TrialModel(0.5, 1.0, -0.5)  # mean 0.25
    result = rebalance(model, 0.75, 0.1)
    assert 0.0 < result.p_loss_adjusted < 1.0
    with pytest.raises(DomainError, match="^target_loss_factor must be in"):
        rebalanced_ruin_inputs(result, 0.25)


def test_transform_serialization():
    result = rebalance(TrialModel(0.5, 0.75, -0.75), 0.75, -0.25)
    payload = _jsonable(result)
    assert payload["p_loss_adjusted"] == 0.75
    assert payload["warnings"] == [WARN_GAIN_BELOW_HALF]
    json.dumps(payload)
    inputs = rebalanced_ruin_inputs(result, 0.25)
    assert _jsonable(inputs)["warnings"] == [WARN_GAIN_BELOW_HALF, WARN_LOG_ASYMMETRIC_LEGS]


@pytest.mark.parametrize(
    "model, target_gain, target_loss, loss_level",
    [(TrialModel(0.5, 1.0, -0.5), 1.0, -0.5, 0.25),
     (TrialModel(0.5, 0.25, -0.2), 0.25, -0.2, 0.5)],
    ids=["double-halve", "quarter-fifth"],
)
def test_log_symmetric_target_legs_get_no_asymmetry_warning(model, target_gain, target_loss,
                                                             loss_level):
    # (1 + g)(1 + l) = 1: one gain undoes one loss, the walk the engines take
    inputs = rebalanced_ruin_inputs(rebalance(model, target_gain, target_loss), loss_level)
    assert WARN_LOG_ASYMMETRIC_LEGS not in inputs.warnings


@pytest.mark.parametrize(
    "model, target_gain, target_loss, loss_level",
    [(TrialModel(0.5, 1.0, -0.5), 0.5, -0.5, 0.25),
     (TrialModel(0.5, 1.0, -0.5), 0.6, -0.3, 0.25),
     (TrialModel(0.55, 0.2, -0.2), 0.1, -0.3, 0.5),
     (TrialModel(0.5, 0.75, -0.75), 0.75, -0.25, 0.25)],
    ids=["half-half", "six-three", "one-three", "golden"],
)
def test_log_asymmetric_target_legs_are_flagged(model, target_gain, target_loss, loss_level):
    # a gain undoes other than one loss, so the +/-1 engines answer another walk
    inputs = rebalanced_ruin_inputs(rebalance(model, target_gain, target_loss), loss_level)
    assert inputs.warnings[-1] == WARN_LOG_ASYMMETRIC_LEGS
