"""Golden stdout of every command in every format, on small inputs.

Each case pins the full stdout of one command, byte for byte, in
``tests/golden/<case>.<format>``.  The tool version and the numpy version
are stored as ``@VERSION@`` and ``@NUMPY@``, so neither a version bump nor
another numpy churns the files.  Only commands whose output draws on no
random bit are pinned: ``simulate`` and ``compare`` at p in {0, 1}.  Each
run also checks that the command called only the renderer of its format.
Without numpy, the cases of the commands that call no engine still run;
the others skip.

To re-record after a deliberate output change, run
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""
import contextlib
import io
import json
import os

import pytest

from ruinlab import __version__, cli
from ruinlab.cli import main

try:
    import numpy as np
except ModuleNotFoundError:  # a bare interpreter runs only the engine-free commands
    np = None

ENGINE_FREE = ("calibrate", "transform", "demo")  # commands that never import numpy
needs_numpy = pytest.mark.skipif(np is None, reason="numpy is not installed: the engines need it")

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FORMATS = ("human", "json", "csv")
TRANSFORM = ("transform", "--p", "0.5", "--gain-factor", "0.75", "--loss-factor", "-0.75",
             "--target-gain-factor", "0.75", "--target-loss-factor", "-0.25")
CASES = {
    "calibrate": ("calibrate", "--loss-level", "0.1", "--loss-factor", "-0.25"),
    "transform": TRANSFORM,
    "transform_loss_level": (*TRANSFORM, "--loss-level", "0.25"),
    "demo": ("demo",),
    "series_exact": ("series", "--p", "0.6", "--distance", "3", "--max-gains", "6"),
    "series_paper": ("series", "--p", "0.5", "--distance", "2", "--max-gains", "6",
                     "--mode", "paper"),
    # counts pass 24 digits from N = 43 (exact) and N = 42 (paper): the human
    # short form and the long exact text of JSON and CSV
    "series_long": ("series", "--p", "0.5", "--distance", "3", "--max-gains", "60"),
    "series_long_paper": ("series", "--p", "0.5", "--distance", "2", "--max-gains", "60",
                          "--mode", "paper"),
    "exact": ("exact", "--p", "0.45", "--distance", "3", "--horizon", "40"),
    "exact_distribution": ("exact", "--p", "0.45", "--distance", "3", "--horizon", "15",
                           "--distribution"),
    "exact_p1": ("exact", "--p", "1", "--distance", "2", "--horizon", "10",
                 "--distribution"),
    "simulate_p0": ("simulate", "--p", "0", "--distance", "3", "--trials", "50",
                    "--max-steps", "20", "--seed", "5"),
    "simulate_p1": ("simulate", "--p", "1", "--loss-level", "0.25", "--trials", "50",
                    "--max-steps", "20", "--seed", "5"),
    "compare_p0": ("compare", "--p", "0", "--distance", "3", "--trials", "40",
                   "--max-steps", "30", "--seed", "9"),
    "compare_p1": ("compare", "--p", "1", "--distance", "2", "--trials", "40",
                   "--max-steps", "30", "--seed", "9"),
}


def stdout_of(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    assert code == 0, argv
    return out.getvalue()


def golden_path(case: str, fmt: str) -> str:
    return os.path.join(GOLDEN, f"{case}.{fmt}")


# the only renderer each format may call
RENDERS = {"human": ["human"], "json": ["result"], "csv": ["table"]}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", [
    pytest.param(case, marks=() if argv[0] in ENGINE_FREE else needs_numpy)
    for case, argv in sorted(CASES.items())
])
def test_stdout_matches_golden(case, fmt, monkeypatch):
    with open(golden_path(case, fmt), encoding="utf-8") as handle:
        expected = handle.read().replace("@VERSION@", __version__)
    if np is not None:
        expected = expected.replace("@NUMPY@", np.__version__)
    calls, real_emit = [], cli._emit

    def tracked(name, render):
        def call():
            calls.append(name)
            return render()
        return call

    def emit(args, output):
        real_emit(args, output._replace(result=tracked("result", output.result),
                                        human=tracked("human", output.human),
                                        table=tracked("table", output.table)))

    monkeypatch.setattr(cli, "_emit", emit)
    assert stdout_of((*CASES[case], "--format", fmt)) == expected
    assert calls == RENDERS[fmt]


@needs_numpy
def test_series_path_counts_are_decimal_strings():
    # counts routinely exceed 64 bits, and JSON readers would round them
    # through a double, so JSON and CSV carry them as exact decimal text
    from ruinlab import exact_coefficient

    argv = ("series", "--p", "0.5", "--distance", "2", "--max-gains", "40")
    terms = json.loads(stdout_of((*argv, "--format", "json")))["result"]["terms"]
    assert terms[3]["path_count"] == "14"
    assert all(isinstance(t["path_count"], str) for t in terms)
    assert terms[40]["path_count"] == str(exact_coefficient(2, 40))
    assert exact_coefficient(2, 40) > 2**64
    rows = stdout_of((*argv, "--format", "csv")).splitlines()
    assert rows[2] == "0,1,0.25,0.25"
    assert rows[-1].split(",")[1] == str(exact_coefficient(2, 40))


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for case, argv in sorted(CASES.items()):
        for fmt in FORMATS:
            text = stdout_of((*argv, "--format", fmt))
            text = text.replace(np.__version__, "@NUMPY@").replace(__version__, "@VERSION@")
            with open(golden_path(case, fmt), "w", encoding="utf-8") as handle:
                handle.write(text)
