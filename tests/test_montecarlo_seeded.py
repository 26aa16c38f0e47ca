"""Fixed-seed Monte Carlo results, pinned bit for bit.

Each case stores ``ruined``, ``censored`` and a sha256 of the sorted
``time_histogram`` in ``tests/golden/simulate_seeded.json``, and is run on
1 and 2 workers.  The cases reach every branch of the engine: bridge
blocks that cross and blocks that drift away, trials at the gap edge
between blocks and byte steps, quick ruin, an odd horizon and a large
distance.

Under numpy's RNG policy (NEP 19) the streams of ``Generator.random`` and
``Generator.binomial`` may change between numpy releases, so the pins hold
only under the numpy version the file records; under another the test
skips.  To re-record after a deliberate change to which bits a trial
draws, run ``PYTHONPATH=src python tests/test_montecarlo_seeded.py`` and
review the diff.
"""
import hashlib
import json
import os

import numpy as np
import pytest

from ruinlab import SimConfig, simulate

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "simulate_seeded.json")
# (p, d, trials, max_steps, seed)
CASES = {
    "crossed_blocks": (0.45, 40, 40037, 2000, 1),
    "drift_away_blocks": (0.6, 20, 40037, 100000, 2),
    "gap_edge": (0.55, 17, 30000, 50000, 7),
    "byte_steps": (0.51, 2, 32768, 10000, 4),
    "quick_ruin": (0.3, 3, 50000, 40, 6),
    "odd_horizon": (0.5, 11, 20000, 1001, 1001),
    "large_distance": (0.5, 1200, 2000, 2000000, 10),
}


def pin(case: str, workers: int = 1) -> dict:
    result = simulate(SimConfig(*CASES[case], workers=workers))
    histogram = json.dumps(sorted(result.time_histogram.items()))
    return {
        "ruined": result.ruined,
        "censored": result.censored,
        "time_histogram_sha256": hashlib.sha256(histogram.encode()).hexdigest(),
    }


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_fixed_seed_result_is_pinned(case, workers):
    golden = load_golden()
    if golden["numpy"] != np.__version__:
        pytest.skip(f"pins recorded under numpy {golden['numpy']}, running "
                    f"{np.__version__}: NEP 19 lets the random and binomial "
                    f"streams change between numpy releases")
    assert golden["cases"][case]["config"] == list(CASES[case])
    assert pin(case, workers) == golden["cases"][case]["pin"]


if __name__ == "__main__":
    cases = {case: {"config": list(CASES[case]), "pin": pin(case)} for case in sorted(CASES)}
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump({"numpy": np.__version__, "cases": cases}, handle, indent=2)
        handle.write("\n")
