"""Property tests of the Monte Carlo engine over small legal inputs."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ruinlab import SimConfig, simulate
from ruinlab.montecarlo import BATCH_TRIALS


@st.composite
def configs(draw):
    d = draw(st.integers(1, 40))
    return SimConfig(
        p=draw(st.floats(0.0, 1.0)),
        distance=d,
        # up to three batches, so the worker pool has batches to split
        trials=draw(st.integers(0, 2)) * BATCH_TRIALS + draw(st.integers(1, 500)),
        max_steps=draw(st.integers(d, d + 300)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(configs())
def test_counts_times_and_worker_identity(config):
    result = simulate(config)
    assert result.ruined + result.censored == config.trials
    assert sum(result.time_histogram.values()) == result.ruined
    assert 0.0 <= result.ruin_frequency <= 1.0
    for step, count in result.time_histogram.items():
        assert config.distance <= step <= config.max_steps
        assert (step - config.distance) % 2 == 0
        assert count > 0
    if config.p == 0.0:
        assert result.time_histogram == {config.distance: config.trials}
    if config.p == 1.0:
        assert result.ruined == 0
    two = SimConfig(config.p, config.distance, config.trials, config.max_steps,
                    config.seed, workers=2)
    assert simulate(two) == result
