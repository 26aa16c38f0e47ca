"""Risk-neutral probability rebalancing for asymmetric gain/loss legs.

Given a trial model, a new pair of gain/loss legs can reproduce its
per-trial expected arithmetic return by adjusting the probabilities
instead of the legs: from

    p_gain_adjusted * target_gain + p_loss_adjusted * target_loss = mean

with the probabilities summing to one,

    p_loss_adjusted = (target_gain - mean) / (target_gain - target_loss).

Rebalancing dilates the per-trial moves, so downstream ruin analysis must
recalibrate the distance against the target loss leg; warning flags mark
where the transformed problem reads very differently from the original
(gain probability below one half, small distances, uncancelled log legs).
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, InfeasibleTargetError
from .model import TrialModel, calibrate

WARN_GAIN_BELOW_HALF = "adjusted_gain_below_half"
WARN_SMALL_DISTANCE = "small_distance"
WARN_LOG_ASYMMETRIC_LEGS = "log_asymmetric_legs"
_LOG_SYMMETRY_TOLERANCE = 1e-9  # relative to |log(1 + target_loss_factor)|

_SMALL_DISTANCE = 5


class TransformResult(NamedTuple):
    """Probabilities that make the target legs match the original mean.

    ``p_loss_adjusted + p_gain_adjusted == 1`` and the rebalanced mean
    equals ``matched_mean`` to within float rounding.  ``warnings`` holds
    ``adjusted_gain_below_half`` when ``p_gain_adjusted < 0.5``.
    """

    original: TrialModel
    target_gain_factor: float
    target_loss_factor: float
    matched_mean: float
    p_loss_adjusted: float
    p_gain_adjusted: float
    warnings: tuple[str, ...]


class RebalancedRuinInputs(NamedTuple):
    """Adjusted gain probability packaged with the recalibrated distance.
    The +/-1 engines (series, DP, Monte Carlo) walk exactly this problem
    only when the target legs cancel, ``(1+g)(1+l) = 1``."""

    p_gain: float
    distance: int
    distance_exact: float
    warnings: tuple[str, ...]


def model_mean(model: TrialModel) -> float:
    """Per-trial expected arithmetic return of ``model``."""
    return model.p_gain * model.gain_factor + model.p_loss * model.loss_factor


def rebalance(
    model: TrialModel,
    target_gain_factor: float,
    target_loss_factor: float,
) -> TransformResult:
    """Adjust probabilities so the target legs preserve ``model``'s mean.

    The mean must lie strictly between the target legs; otherwise no valid
    probability exists and an :class:`InfeasibleTargetError` is raised
    rather than clamping (a clamped probability would silently change the
    drift, defeating the whole point of the transform).
    """
    for name, value in (
        ("target_gain_factor", target_gain_factor),
        ("target_loss_factor", target_loss_factor),
    ):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if not target_gain_factor > target_loss_factor:
        raise DomainError(
            f"target_gain_factor must exceed target_loss_factor, got "
            f"{target_gain_factor} <= {target_loss_factor}"
        )
    mean = model_mean(model)
    if not target_loss_factor < mean < target_gain_factor:
        raise InfeasibleTargetError(
            f"per-trial mean {mean} is outside the open interval "
            f"({target_loss_factor}, {target_gain_factor}); the target legs "
            f"(target_loss_factor, target_gain_factor) cannot reproduce the original drift"
        )
    # halve the legs when their spread overflows: halving a normal double is exact
    h = 1.0 if math.isfinite(target_gain_factor - target_loss_factor) else 0.5
    gain, loss = h * target_gain_factor, h * target_loss_factor
    p_loss = (gain - h * mean) / (gain - loss)
    p_gain = 1.0 - p_loss
    return TransformResult(
        original=model,
        target_gain_factor=target_gain_factor,
        target_loss_factor=target_loss_factor,
        matched_mean=mean,
        p_loss_adjusted=p_loss,
        p_gain_adjusted=p_gain,
        warnings=(WARN_GAIN_BELOW_HALF,) if p_gain < 0.5 else (),
    )


def rebalanced_ruin_inputs(
    result: TransformResult, loss_level: float
) -> RebalancedRuinInputs:
    """Distance calibration of the transformed problem at ``loss_level``.

    Pairs the adjusted gain probability with the distance implied by the
    target loss leg.  Flags ``adjusted_gain_below_half`` when the rebalanced
    per-wager gain chance drops under 50% and ``small_distance`` when the
    integer distance lands below 5; both are interpretation hazards of the
    amplified per-trial moves, not errors.  ``log_asymmetric_legs`` flags
    target legs with ``(1+g)(1+l) != 1``: the +/-1 engines answer another walk.
    """
    try:
        spec = calibrate(loss_level, result.target_loss_factor)
    except DomainError as exc:
        # calibrate names its own argument; here that factor is the target leg
        raise DomainError(str(exc).replace("loss_factor", "target_loss_factor")) from None
    small = (WARN_SMALL_DISTANCE,) if spec.distance < _SMALL_DISTANCE else ()
    # logs as calibrate takes them, of the float factors the bankroll multiplies by
    log_loss = math.log(1.0 + spec.loss_factor)
    gap = abs(math.log(1.0 + result.target_gain_factor) + log_loss)
    asymmetric = (WARN_LOG_ASYMMETRIC_LEGS,) if gap > _LOG_SYMMETRY_TOLERANCE * abs(log_loss) else ()
    return RebalancedRuinInputs(
        p_gain=result.p_gain_adjusted,
        distance=spec.distance,
        distance_exact=spec.distance_exact,
        warnings=result.warnings + small + asymmetric,
    )
