"""Distance calibration: log-scale reduction of the multiplicative problem."""
import math
import pickle
import re

import pytest

from ruinlab import DomainError, TrialModel, calibrate, lattice_distance

# frozen from a 40-digit evaluation of log(loss_level)/log(1 + loss_factor)
LOG_01_OVER_LOG_05 = 3.321928094887362
LOG_025_OVER_LOG_075 = 4.818841679306418
LOG_01_OVER_LOG_075 = 8.003922779651094


def test_distance_examples():
    assert calibrate(0.25, -0.5).distance_exact == pytest.approx(2.0, abs=1e-12)
    assert calibrate(0.5, -0.5).distance_exact == pytest.approx(1.0, abs=1e-12)
    assert calibrate(0.1, -0.5).distance_exact == pytest.approx(LOG_01_OVER_LOG_05, abs=1e-12)


def test_generalized_distance_examples():
    assert calibrate(0.25, -0.5).distance_exact == pytest.approx(2.0, abs=1e-12)
    for loss_factor in (-0.5, -0.25, -0.75, -0.125):
        assert calibrate(1.0 + loss_factor, loss_factor).distance_exact == pytest.approx(
            1.0, abs=1e-12
        )
    assert calibrate(0.25, -0.25).distance_exact == pytest.approx(
        LOG_025_OVER_LOG_075, abs=1e-12
    )


def test_generalized_distance_matches_halving_rule():
    # log2(1/x) halvings reach loss level x
    for x in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        assert calibrate(x, -0.5).distance_exact == pytest.approx(-math.log2(x), abs=1e-12)


def test_distance_monotonicity():
    levels = [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    distances = [calibrate(x, -0.5).distance_exact for x in levels]
    assert all(a > b for a, b in zip(distances, distances[1:]))


def test_round_trip_integer_distances():
    for d in range(1, 13):
        level = 0.5**d
        assert calibrate(level, -0.5).distance_exact == pytest.approx(d, abs=1e-12)
        assert calibrate(level, -0.5).distance == d


def test_calibrate_worked_example():
    spec = calibrate(0.25, -0.5)
    assert spec.distance == 2
    assert spec.distance_exact == pytest.approx(2.0, abs=1e-12)
    assert spec.implied_loss_level == pytest.approx(0.25, abs=1e-12)


def test_calibrate_exact_power_snaps_to_integer():
    for loss_factor in (-0.5, -0.25, -0.3, -0.8):
        level = (1.0 + loss_factor) ** 3
        assert calibrate(level, loss_factor).distance == 3


def test_calibrate_fractional_distance_rounds_up():
    spec = calibrate(0.10, -0.25)
    assert spec.distance_exact == pytest.approx(LOG_01_OVER_LOG_075, abs=1e-12)
    assert spec.distance == 9


def test_integer_distance_never_understates_protection():
    for loss_factor in (-0.5, -0.25, -0.1, -0.85):
        for level in (0.02, 0.1, 0.33, 0.5, 0.77, 0.96):
            spec = calibrate(level, loss_factor)
            assert (1.0 + loss_factor) ** spec.distance <= level + 1e-12
            assert spec.implied_loss_level <= level + 1e-12
            assert spec.distance >= 1


def test_distance_exact_reproduces_loss_level():
    for loss_factor in (-0.5, -0.25, -0.6):
        for level in (0.05, 0.25, 0.8):
            spec = calibrate(level, loss_factor)
            reproduced = (1.0 + loss_factor) ** spec.distance_exact
            assert reproduced == pytest.approx(level, rel=1e-12)


def test_lattice_distance_snap_guard():
    assert lattice_distance(3.0) == 3
    assert lattice_distance(3.0 + 5e-10) == 3  # snapped
    assert lattice_distance(3.0 - 5e-10) == 3
    assert lattice_distance(3.01) == 4
    assert lattice_distance(0.4) == 1
    assert lattice_distance(1e-12) == 1  # never below 1


@pytest.mark.parametrize("bad_level", [0.0, 1.0, -0.1, 1.5, 2.0])
def test_loss_level_domain_errors(bad_level):
    with pytest.raises(DomainError, match="loss_level must be a strict fraction"):
        calibrate(bad_level, -0.5)


@pytest.mark.parametrize("bad_factor", [0.0, -1.0, 0.5, -1.5, -1e-17])
def test_loss_factor_domain_errors(bad_factor):
    with pytest.raises(DomainError, match=r"^loss_factor must be in \(-1, 0\)"):
        calibrate(0.25, bad_factor)


def test_trial_model_validation():
    with pytest.raises(DomainError):
        TrialModel(p_gain=1.2, gain_factor=1.0, loss_factor=-0.5)
    with pytest.raises(DomainError):
        TrialModel(p_gain=0.5, gain_factor=0.0, loss_factor=-0.5)
    with pytest.raises(DomainError):
        TrialModel(p_gain=0.5, gain_factor=1.0, loss_factor=-1.0)
    with pytest.raises(DomainError):
        TrialModel(p_gain=0.5, gain_factor=1.0, loss_factor=0.25)
    model = TrialModel(p_gain=0.7, gain_factor=1.0, loss_factor=-0.5)
    assert model.p_loss == pytest.approx(0.3)


VALID_MODEL = {"p_gain": 0.7, "gain_factor": 1.0, "loss_factor": -0.5}


@pytest.mark.parametrize("build", ["constructor", "_replace", "_make", "pickle"])
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("p_gain", 1.2, "p_gain must be in [0, 1], got 1.2"),
        ("gain_factor", 0.0, "gain_factor must be finite and > 0, got 0.0"),
        ("loss_factor", -1.0, "loss_factor must be in (-1, 0), got -1.0"),
    ],
)
def test_trial_model_validates_however_it_is_built(build, field, value, message):
    # _replace builds through _make: neither may skip the constructor's checks
    fields = {**VALID_MODEL, field: value}
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        if build == "constructor":
            TrialModel(**fields)
        elif build == "_replace":
            TrialModel(**VALID_MODEL)._replace(**{field: value})
        elif build == "_make":
            TrialModel._make(fields.values())
        else:  # a copy of a record built past the checks
            pickle.loads(pickle.dumps(tuple.__new__(TrialModel, fields.values())))
    replaced = TrialModel(**VALID_MODEL)._replace(p_gain=0.25)
    assert type(replaced) is TrialModel
    assert replaced == TrialModel(0.25, 1.0, -0.5)
    assert replaced.p_loss == 0.75


@pytest.mark.parametrize("factor", [math.inf, -math.inf, math.nan, float("1e400")])
def test_trial_model_rejects_non_finite_gain_factor(factor):
    with pytest.raises(DomainError, match="gain_factor"):
        TrialModel(p_gain=0.5, gain_factor=factor, loss_factor=-0.5)


def test_calibrate_runtime_is_trivial():
    import time

    start = time.perf_counter()
    for _ in range(100):
        calibrate(0.25, -0.5)
    per_call = (time.perf_counter() - start) / 100
    assert per_call < 1e-3
