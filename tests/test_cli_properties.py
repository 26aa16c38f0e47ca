"""Property test of the command line over its legal domain: every argv that
argparse accepts either exits 0 with parseable JSON or CSV whose
probabilities lie in [0, 1], or exits 2 or 3 with a message that names a
flag it was given (or, for a missing flag, the flag it needs).

Caps keep each example to milliseconds and a few MB, on one worker:
horizons, trials and simulated steps up to 2000, and at most 60 series
gains.  ``compare`` without ``--horizon`` also takes ``--max-steps`` past
the kernel's 2**59-step bound, where it must fail at once and name that
flag.  A simulation's own ``--max-steps`` stays at 2000: near p = 1/2 a
run of 2**62 steps takes seconds to minutes and hundreds of MB.
"""
import argparse
import contextlib
import csv
import io
import json
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ruinlab.cli import _build_parser, main

CAP = 2000
probabilities = st.floats(0.0, 1.0)
distances = st.integers(1, CAP)
horizons = st.integers(1, CAP)
gains = st.integers(0, 60)
loss_levels = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
loss_factors = st.floats(-1.0, 0.0, exclude_min=True, exclude_max=True)
finite = st.floats(allow_nan=False, allow_infinity=False)
legs = st.floats(0.0, 10.0) | finite


def flags(required, optional=None):
    return st.fixed_dictionaries(required, optional=optional or {})


run = flags({"trials": st.integers(1, CAP), "seed": st.integers(0, 2**64 - 1),
             "workers": st.just(1)})
COMMANDS = {
    "calibrate": [flags({"loss-level": loss_levels}, {"loss-factor": loss_factors})],
    "series": [flags({"p": probabilities, "distance": distances, "max-gains": gains},
                     {"mode": st.sampled_from(["paper", "exact"])})],
    "exact": [flags({"p": probabilities, "distance": distances, "horizon": horizons},
                    {"distribution": st.just(True)})],
    "simulate": [
        flags({"p": probabilities, "max-steps": horizons}),
        # a barrier from a distance or a loss level, or an illegal mix of both
        flags({"distance": distances})
        | flags({"loss-level": loss_levels}, {"loss-factor": loss_factors})
        | flags({}, {"distance": distances, "loss-level": loss_levels,
                     "loss-factor": loss_factors}),
        run,
    ],
    "transform": [flags({"p": probabilities, "gain-factor": legs, "loss-factor": loss_factors,
                         "target-gain-factor": legs, "target-loss-factor": loss_factors | finite},
                        {"loss-level": loss_levels})],
    "compare": [
        flags({"p": probabilities, "distance": distances, "max-gains": gains}),
        # the DP horizon is --horizon, or --max-steps up to past the kernel's bound
        flags({"horizon": horizons, "max-steps": horizons})
        | flags({"max-steps": horizons | st.integers(2**59 + 1, 2**62)}),
        run,
    ],
    "demo": [],
}


def to_argv(drawn):
    command, fmt, *groups = drawn
    argv = [command, "--format", fmt]
    for group in groups:
        for flag, value in group.items():
            argv += [f"--{flag}"] if value is True else [f"--{flag}", str(value)]
    return argv


argvs = st.sampled_from(sorted(COMMANDS)).flatmap(
    lambda command: st.tuples(st.just(command), st.sampled_from(["json", "csv"]),
                              *COMMANDS[command])
).map(to_argv)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def unit_interval_values(fmt, out):
    """Parse stdout and return the values that must lie in [0, 1]: exact-mode
    series terms, the horizon oracle, the simulated ruin frequency and every
    valid ruin-probability row of a comparison."""
    if fmt == "json":
        payload = json.loads(out)
        manifest, result = payload["manifest"], payload["result"]
        distribution = result.get("ruin_time_distribution") or {}
        rows = [result, *result.get("terms", []), *result.get("ruin_estimates", []),
                *({"probability_mass": mass} for mass in distribution.values())]
    else:
        first, *lines = out.splitlines()
        assert first.startswith("# manifest: ")
        manifest = json.loads(first.removeprefix("# manifest: "))
        header, *body = csv.reader(lines)
        assert all(len(row) == len(header) for row in body)
        rows = [dict(zip(header, row)) for row in body]
        if manifest["command"] == "simulate":  # the rows are the ruin-time histogram
            ruined = sum(int(row["count"]) for row in rows)
            rows = [{"ruin_frequency": ruined / manifest["parameters"]["trials"]}]
    if manifest["parameters"].get("mode") == "paper":
        return []  # paper-mode counts overcount: its sums pass 1 by design
    keys = {"probability", "cumulative", "probability_mass", "value",
            "ruin_probability_within_horizon", "survival_mass", "ruin_frequency"}
    # a comparison's rows: JSON lists the ruin rows alone, CSV names each section
    rows = [row for row in rows if str(row.get("valid", True)) == "True"
            and row.get("section", "ruin_probability") == "ruin_probability"]
    return [float(row[key]) for row in rows for key in keys & row.keys()]


def command_flags(command: str) -> list[str]:
    """The flags of ``command``, without ``--help``."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [option[2:] for action in sub.choices[command]._actions
            for option in action.option_strings if option.startswith("--") and option != "--help"]


def named(flag: str, message: str) -> bool:
    """Whether ``message`` names ``flag`` as ``--max-steps``, ``max_steps`` or
    ``max steps``."""
    forms = (f"--{flag}", flag.replace("-", "_"), flag.replace("-", " "))
    return any(re.search(rf"(?<![\w-]){re.escape(form)}(?![\w-])", message) for form in forms)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argvs)
def test_every_legal_argv_answers_or_names_its_flag(argv):
    code, out, err = run_cli(argv)
    if code == 0:
        values = unit_interval_values(argv[2], out)
        assert all(0.0 <= value <= 1.0 for value in values), values
    else:
        assert code in (2, 3), err
        assert out == ""
        # the offending flag was given, unless the message is about a missing one
        given_flags = [arg[2:] for arg in argv if arg.startswith("--")]
        candidates = command_flags(argv[0]) if "required" in err else given_flags
        assert any(named(flag, err) for flag in candidates), err
