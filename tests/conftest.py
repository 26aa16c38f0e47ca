import os
import sys

import pytest

# make the sibling oracles module importable from every test file
sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def free_process_pool(monkeypatch):
    """Every multi-worker run forks its pool whenever it has batches to split.

    ``simulate`` starts a pool only when the first batch's time says it pays,
    and the tests' runs are short, so without this their pool-against-serial
    identity checks would all run in process.  A test of the threshold itself
    sets ``_POOL_START_S`` back to its real value.
    """
    from ruinlab import montecarlo

    monkeypatch.setattr(montecarlo, "_POOL_START_S", 0.0)
