import os
import sys

import pytest

# make the sibling oracles module importable from every test file
sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def free_process_pool(monkeypatch):
    """Every run not capped at one worker forks its pool whenever it has
    batches to split: with its default of one process per CPU, every
    default-config run of three batches or more, given 2 CPUs or more.

    ``simulate`` starts a pool only when the first batch's time says it pays,
    and the tests' runs are short, so without this their pool-against-serial
    identity checks would all run in process.  A test of the threshold itself
    sets ``_POOL_START_S`` and ``_POOL_PROCESS_S`` back to their real values.
    Without numpy no engine runs, so there is nothing to set.
    """
    try:
        from ruinlab import montecarlo
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        return

    monkeypatch.setattr(montecarlo, "_POOL_START_S", 0.0)
    monkeypatch.setattr(montecarlo, "_POOL_PROCESS_S", 0.0)
