"""Command-line surface: formats, exit codes, manifests, reproducibility."""
import argparse
import csv
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from typing import NamedTuple

import pytest

from ruinlab import exact_coefficient, ruin_probability_dp
from ruinlab.cli import _build_parser, _jsonable, main


# the CLI in a fresh interpreter, for tests that need a real process
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CLI = (sys.executable, "-c",
       "import sys; from ruinlab.cli import main; sys.exit(main(sys.argv[1:]))")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(*argv):
    proc = subprocess.run([*CLI, *argv], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC))
    return proc.returncode, proc.stdout, proc.stderr


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, out
    return json.loads(out)


# ----------------------------------------------------------------------
# calibrate
# ----------------------------------------------------------------------


def test_calibrate_worked_example(capsys):
    payload = run_json(capsys, "calibrate", "--loss-level", "0.25")
    assert payload["result"]["distance"] == 2
    assert payload["result"]["distance_exact"] == pytest.approx(2.0, abs=1e-12)


def test_calibrate_single_halving(capsys):
    payload = run_json(capsys, "calibrate", "--loss-level", "0.5")
    assert payload["result"]["distance"] == 1


def test_calibrate_generalized(capsys):
    payload = run_json(
        capsys, "calibrate", "--loss-level", "0.1", "--loss-factor", "-0.25"
    )
    assert payload["result"]["distance_exact"] == pytest.approx(
        8.003922779651094, abs=1e-12
    )
    assert payload["result"]["distance"] == 9


# ----------------------------------------------------------------------
# series / exact
# ----------------------------------------------------------------------


def test_series_cumulative(capsys):
    payload = run_json(
        capsys, "series", "--p", "0.5", "--distance", "2",
        "--max-gains", "1", "--mode", "exact",
    )
    assert payload["result"]["cumulative"] == pytest.approx(0.375)


def test_series_all_gain_terms_vanish(capsys):
    payload = run_json(capsys, "series", "--p", "1", "--distance", "3", "--max-gains", "10")
    terms = payload["result"]["terms"]
    assert all(t["probability"] == 0.0 for t in terms)


def test_series_converges_to_classical(capsys):
    payload = run_json(
        capsys, "series", "--p", "0.6", "--distance", "3",
        "--max-gains", "200", "--mode", "exact",
    )
    assert payload["result"]["cumulative"] == pytest.approx(0.2962962962962963, abs=1e-6)


def test_series_csv_shape(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--p", "0.5", "--distance", "2", "--max-gains", "2",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "N,count,probability,cumulative"
    assert lines[2] == "0,1,0.25,0.25"
    assert len(lines) == 5


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
@pytest.mark.parametrize("max_gains", [600, 7200])
def test_series_prints_counts_past_float_and_digit_limits(capsys, max_gains, fmt):
    # from N ~ 515 counts exceed the double range; from N ~ 7140 their
    # decimal digits exceed Python's default int-to-str limit of 4300
    code, out, err = run_cli(
        capsys, "series", "--p", "0.5", "--distance", "3",
        "--max-gains", str(max_gains), "--format", fmt,
    )
    assert code == 0, err
    count = exact_coefficient(3, max_gains)
    if fmt == "json":
        text = json.loads(out)["result"]["terms"][-1]["path_count"]
    elif fmt == "csv":
        text = list(csv.reader(out.splitlines()[1:]))[-1][1]
    else:
        last = out.splitlines()[-2].split()
        assert last[0] == str(max_gains)
        assert abs(Decimal(last[1]) / count - 1) < Decimal("1e-6")
        return
    assert Decimal(text) == count


def test_exact_command(capsys):
    payload = run_json(
        capsys, "exact", "--p", "0.6", "--distance", "3", "--horizon", "4000"
    )
    assert payload["result"]["ruin_probability_within_horizon"] == pytest.approx(
        8 / 27, abs=1e-6
    )
    assert payload["result"]["ruin_time_distribution"] is None


def test_exact_distribution_csv(capsys):
    code, out, _ = run_cli(
        capsys, "exact", "--p", "0.5", "--distance", "2", "--horizon", "6",
        "--distribution", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "step,probability_mass"
    assert lines[2].startswith("2,0.25")


@pytest.mark.parametrize("fmt, kept", [("human", False), ("json", True), ("csv", True)])
def test_exact_distribution_builds_the_step_map_only_for_formats_that_print_it(
    capsys, monkeypatch, fmt, kept
):
    # the human lines never print the map, so building it there is waste
    from ruinlab import cli

    real, calls = cli.ruin_probability_dp, []

    def spy(*args, keep_distribution=False):
        calls.append(keep_distribution)
        return real(*args, keep_distribution=keep_distribution)

    monkeypatch.setattr(cli, "ruin_probability_dp", spy)
    code, _, _ = run_cli(capsys, "exact", "--p", "0.5", "--distance", "2", "--horizon", "6",
                         "--distribution", "--format", fmt)
    assert code == 0
    assert calls == [kept]


@pytest.mark.parametrize("p", ["0", "0.3", "1"])
def test_exact_horizon_of_exactly_the_distance(capsys, p):
    payload = run_json(
        capsys, "exact", "--p", p, "--distance", "7", "--horizon", "7"
    )
    expected = ruin_probability_dp(float(p), 7, 7).ruin_probability_within_horizon
    assert payload["result"]["ruin_probability_within_horizon"] == expected
    assert expected == pytest.approx((1.0 - float(p)) ** 7, rel=1e-13, abs=0)


# ----------------------------------------------------------------------
# simulate / compare
# ----------------------------------------------------------------------


def test_simulate_deterministic_loss_run(capsys):
    payload = run_json(
        capsys, "simulate", "--p", "0", "--distance", "2",
        "--trials", "100", "--seed", "7",
    )
    assert payload["result"]["ruin_frequency"] == 1.0
    assert payload["result"]["time_histogram"] == {"2": 100}
    assert payload["manifest"]["seed"] == 7


def test_simulate_requires_seed(capsys):
    code, _, err = run_cli(capsys, "simulate", "--p", "0.5", "--distance", "2")
    assert code == 2
    assert "--seed" in err


_NO_BARRIER = "ruinlab simulate: error: one of the arguments --distance --loss-level is required"


def test_simulate_requires_a_barrier(capsys):
    # argparse's required group: a usage block, then the message naming both flags
    code, out, err = run_cli(capsys, "simulate", "--p", "0.5", "--seed", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("usage: ruinlab simulate")
    assert err.splitlines()[-1] == _NO_BARRIER


def test_simulate_loss_level_route(capsys):
    payload = run_json(
        capsys, "simulate", "--p", "0", "--loss-level", "0.25",
        "--trials", "50", "--seed", "3",
    )
    assert payload["result"]["time_histogram"] == {"2": 50}


def test_simulate_rejects_conflicting_barrier_flags(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--p", "0.5", "--distance", "2",
        "--loss-level", "0.25", "--seed", "1",
    )
    assert code == 2
    assert err.splitlines()[-1] == (
        "ruinlab simulate: error: argument --loss-level: not allowed with argument --distance"
    )


@pytest.mark.parametrize("barrier", [("--distance", "3"), ()])
def test_simulate_loss_factor_without_loss_level_is_an_error(capsys, barrier):
    # the loss factor only calibrates a loss level; with --distance it used
    # to be ignored while the manifest recorded it.  With no barrier at all,
    # argparse names the missing flags first
    code, out, err = run_cli(
        capsys, "simulate", "--p", "0.5", *barrier, "--loss-factor", "-0.25",
        "--seed", "1", "--trials", "10", "--max-steps", "10",
    )
    assert code == 2
    assert out == ""
    if barrier:
        assert err.startswith("error: --loss-factor needs --loss-level")
    else:
        assert err.splitlines()[-1] == _NO_BARRIER


def test_closed_stdout_exits_141_without_a_traceback():
    # the JSON is megabytes, far past a pipe's buffer, so the writer is
    # still writing when the reader goes away
    proc = subprocess.Popen(
        [*CLI, "exact", "--p", "0.5", "--distance", "3",
         "--horizon", "200000", "--distribution", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=SRC),
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert head == b'{"manifest'
    assert err == b""


@pytest.mark.parametrize("distance", [1075, 2000])
def test_simulate_and_compare_at_distances_past_double_halvings(capsys, distance):
    # 0.5**distance underflows to 0, so no halving loss level names these barriers
    argv = ("--p", "0.55", "--distance", str(distance), "--trials", "100",
            "--max-steps", "5000", "--seed", "1")
    payload = run_json(capsys, "simulate", *argv)
    assert payload["manifest"]["parameters"]["distance"] == distance
    assert payload["result"]["censored"] == 100
    payload = run_json(capsys, "compare", *argv)
    assert payload["result"]["distance"] == distance
    assert 0.0 < payload["result"]["ruin_reference"] < 1e-100


def test_simulate_past_int64_names_the_horizon(capsys):
    # used to exit 2 with "Python int too large to convert to C long"
    big = str(10**20)
    code, out, err = run_cli(capsys, "simulate", "--p", "0.5", "--distance", big,
                             "--max-steps", big, "--trials", "10", "--seed", "1")
    assert code == 2
    assert out == ""
    assert "max_steps must be <= 2**62" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--distance", str(2**63)),
        ("simulate", "--loss-level", "1e-300", "--loss-factor=-1e-16"),  # d = 6.2e18
        ("compare", "--distance", str(2**63)),
    ],
    ids=["simulate-distance", "simulate-loss-level", "compare-distance"],
)
def test_distance_past_the_largest_max_steps_names_both(capsys, argv):
    # used to ask for --max-steps >= distance, past its own bound of 2**62
    code, out, err = run_cli(capsys, *argv, "--p", "0.5", "--max-steps", str(2**62),
                             "--seed", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: distance must be <= 2**62, the largest max_steps, got ")


def test_simulate_past_the_trial_bound_names_trials(capsys):
    # used to exit 2 with "cannot fit 'int' into an index-sized integer"
    code, out, err = run_cli(capsys, "simulate", "--p", "0.5", "--distance", "2",
                             "--trials", str(10**23), "--seed", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: trials must be <= 2**62, got {10**23}\n"


def test_simulate_replaying_manifest_is_bit_identical(capsys):
    argv = [
        "simulate", "--p", "0.45", "--distance", "2", "--trials", "5000",
        "--max-steps", "400", "--seed", "123456789",
    ]
    code, first, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    manifest = json.loads(first)["manifest"]
    replay_argv = [manifest["command"]]
    for key, value in manifest["parameters"].items():
        if value is None:
            continue
        replay_argv += [f"--{key.replace('_', '-')}", str(value)]
    code, second, _ = run_cli(capsys, *replay_argv)
    assert code == 0
    assert second == first


def test_compare_replaying_manifest_is_bit_identical(capsys):
    argv = [
        "compare", "--p", "0.55", "--distance", "2", "--trials", "3000",
        "--max-steps", "2000", "--seed", "777",
    ]
    code, first, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    manifest = json.loads(first)["manifest"]
    replay_argv = [manifest["command"]]
    for key, value in manifest["parameters"].items():
        if value is None:
            continue
        replay_argv += [f"--{key.replace('_', '-')}", str(value)]
    code, second, _ = run_cli(capsys, *replay_argv)
    assert code == 0
    assert second == first


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_workers_left_out_is_recorded_as_null_and_changes_no_result(capsys, command):
    # 3 batches: with the pool's start cost at 0 (conftest), a default run
    # forks a pool on any machine with 2 CPUs or more
    argv = [command, "--p", "0.55", "--distance", "2", "--trials", "20000",
            "--max-steps", "500", "--seed", "17"]
    default = run_json(capsys, *argv)
    one = run_json(capsys, *argv, "--workers", "1")
    assert default["manifest"]["parameters"].pop("workers") is None
    assert one["manifest"]["parameters"].pop("workers") == 1
    assert default == one


def test_compare_table(capsys):
    payload = run_json(
        capsys, "compare", "--p", "0.6", "--distance", "3",
        "--trials", "20000", "--max-steps", "20000", "--seed", "42",
    )
    rows = {e["method"]: e for e in payload["result"]["ruin_estimates"]}
    assert rows["dp"]["value"] == pytest.approx(8 / 27, abs=1e-6)
    assert rows["series_exact"]["abs_dev_from_dp"] < 1e-5
    assert rows["paper_final_form"]["value"] == pytest.approx(0.013824)
    assert not rows["approx_simplified"]["valid"]
    assert {e["method"] for e in payload["result"]["time_estimates"]} == {
        "dp_censored_mean", "paper_estimator", "classical_drift",
        "monte_carlo_censored_mean",
    }


# ----------------------------------------------------------------------
# transform / demo
# ----------------------------------------------------------------------


def test_transform_worked_example(capsys):
    payload = run_json(
        capsys, "transform", "--p", "0.5", "--gain-factor", "0.75",
        "--loss-factor", "-0.75", "--target-gain-factor", "0.75",
        "--target-loss-factor", "-0.25",
    )
    assert payload["result"]["p_loss_adjusted"] == 0.75
    assert payload["result"]["rebalanced"] is None


def test_transform_with_loss_level(capsys):
    payload = run_json(
        capsys, "transform", "--p", "0.5", "--gain-factor", "0.75",
        "--loss-factor", "-0.75", "--target-gain-factor", "0.75",
        "--target-loss-factor", "-0.25", "--loss-level", "0.25",
    )
    rebalanced = payload["result"]["rebalanced"]
    assert rebalanced["distance"] == 5
    assert rebalanced["warnings"] == ["adjusted_gain_below_half"]


def test_transform_infeasible_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "transform", "--p", "0.5", "--gain-factor", "0.75",
        "--loss-factor", "-0.75", "--target-gain-factor", "0.5",
        "--target-loss-factor", "0.1",
    )
    assert code == 3
    assert "cannot reproduce" in err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
@pytest.mark.parametrize(
    "flag", ["gain-factor", "target-gain-factor", "target-loss-factor"]
)
def test_transform_rejects_non_finite_factors(capsys, flag, value):
    # --target-gain-factor inf used to exit 0 with p_loss_adjusted nan, and
    # --gain-factor inf to exit 3 with a misleading infeasible-mean message
    legs = {"gain-factor": "0.75", "target-gain-factor": "0.75",
            "target-loss-factor": "-0.25", flag: value}
    argv = ["transform", "--p", "0.5", "--loss-factor", "-0.75"]
    argv += [f"--{name}={text}" for name, text in legs.items()]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"argument --{flag}" in err


@pytest.mark.parametrize("target_loss", ["-1.5", "-1e-17"])
def test_transform_names_the_target_loss_factor(capsys, target_loss):
    # the user's --loss-factor is fine; the distance was calibrated on the
    # target leg, but the error used to name loss_factor
    code, out, err = run_cli(
        capsys, "transform", "--p", "0.5", "--gain-factor", "0.75",
        "--loss-factor", "-0.75", "--target-gain-factor", "0.75",
        f"--target-loss-factor={target_loss}", "--loss-level", "0.25",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: target_loss_factor must be in (-1, 0)")
    assert f"got {float(target_loss)}" in err


# (subcommand, flag, dest, type, default, required) of every flag, recorded
# before the flags shared by several subcommands moved into parent parsers
_PARSER_SURFACE = [
    ("calibrate", "--format", "format", None, "human", False),
    ("calibrate", "--loss-level", "loss_level", "_loss_level", None, True),
    ("calibrate", "--loss-factor", "loss_factor", "_loss_factor", -0.5, False),
    ("series", "--format", "format", None, "human", False),
    ("series", "--p", "p", "_probability", None, True),
    ("series", "--distance", "distance", "_positive_int", None, True),
    ("series", "--max-gains", "max_gains", "_nonnegative_int", 200, False),
    ("series", "--mode", "mode", None, "exact", False),
    ("exact", "--format", "format", None, "human", False),
    ("exact", "--p", "p", "_probability", None, True),
    ("exact", "--distance", "distance", "_positive_int", None, True),
    ("exact", "--horizon", "horizon", "_positive_int", 100000, False),
    ("exact", "--distribution", "distribution", None, False, False),
    ("simulate", "--format", "format", None, "human", False),
    ("simulate", "--p", "p", "_probability", None, True),
    ("simulate", "--distance", "distance", "_positive_int", None, False),
    ("simulate", "--loss-level", "loss_level", "_loss_level", None, False),
    ("simulate", "--loss-factor", "loss_factor", "_loss_factor", -0.5, False),
    ("simulate", "--trials", "trials", "_positive_int", 100000, False),
    ("simulate", "--max-steps", "max_steps", "_positive_int", 100000, False),
    ("simulate", "--seed", "seed", "_seed", None, True),
    ("simulate", "--workers", "workers", "_positive_int", None, False),
    ("transform", "--format", "format", None, "human", False),
    ("transform", "--p", "p", "_probability", None, True),
    ("transform", "--gain-factor", "gain_factor", "_signed_fraction", None, True),
    ("transform", "--loss-factor", "loss_factor", "_loss_factor", None, True),
    ("transform", "--target-gain-factor", "target_gain_factor", "_signed_fraction", None, True),
    ("transform", "--target-loss-factor", "target_loss_factor", "_signed_fraction", None, True),
    ("transform", "--loss-level", "loss_level", "_loss_level", None, False),
    ("compare", "--format", "format", None, "human", False),
    ("compare", "--p", "p", "_probability", None, True),
    ("compare", "--distance", "distance", "_positive_int", None, True),
    ("compare", "--trials", "trials", "_positive_int", 100000, False),
    ("compare", "--max-steps", "max_steps", "_positive_int", 100000, False),
    ("compare", "--seed", "seed", "_seed", None, True),
    ("compare", "--workers", "workers", "_positive_int", None, False),
    ("compare", "--max-gains", "max_gains", "_nonnegative_int", 200, False),
    ("compare", "--horizon", "horizon", "_positive_int", None, False),
    ("demo", "--format", "format", None, "human", False),
]


def test_parser_surface_is_pinned():
    # help text and the order of flags may change; what each flag parses to may not
    from ruinlab import cli
    type_names = {id(value): name for name, value in vars(cli).items() if callable(value)}
    commands = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    surface = [
        (command, action.option_strings[0], action.dest, type_names.get(id(action.type)),
         action.default, action.required)
        for command, subparser in commands.choices.items()
        for action in subparser._actions
        if not isinstance(action, argparse._HelpAction)
    ]
    assert sorted(surface) == sorted(_PARSER_SURFACE)


def _typed_flags():
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (command, action.option_strings[0])
        for command, subparser in commands.choices.items()
        for action in subparser._actions
        if action.type is not None
    ]


# each typed flag: its rule for text that does not parse, and a value out
# of range with its rule (messages recorded before the flag types shared
# one declaration)
_POSITIVE_INT = "must be a positive integer"
_FINITE = "must be a finite number"
_FLAG_RULES = {
    "--p": ("probability must be a number in [0, 1]",
            "1.5", "probability must be in [0, 1] (did you mean 0.015?)"),
    "--loss-level": ("loss level must be a number in (0, 1)",
                     "1.5", "loss level must be a strict fraction in (0, 1) (did you mean 0.015?)"),
    "--loss-factor": ("loss factor must be a number in (-1, 0)",
                      "0.5", "loss factor must be a signed fraction in (-1, 0), "
                             "e.g. -0.5 for a 50% loss"),
    "--gain-factor": (_FINITE, "inf", _FINITE),
    "--target-gain-factor": (_FINITE, "nan", _FINITE),
    "--target-loss-factor": (_FINITE, "-inf", _FINITE),
    "--distance": (_POSITIVE_INT, "0", _POSITIVE_INT),
    "--horizon": (_POSITIVE_INT, "0", _POSITIVE_INT),
    "--trials": (_POSITIVE_INT, "0", _POSITIVE_INT),
    "--max-steps": (_POSITIVE_INT, "0", _POSITIVE_INT),
    "--workers": (_POSITIVE_INT, "0", _POSITIVE_INT),
    "--max-gains": ("must be an integer >= 0", "-1", "must be >= 0"),
    "--seed": ("seed must be a 64-bit unsigned integer",
               str(2**64), "seed must be a 64-bit unsigned integer"),
}


@pytest.mark.parametrize("command, flag", _typed_flags())
def test_unparsable_flag_values_say_what_is_wrong(capsys, command, flag):
    # argparse reports a ValueError from a type function as "invalid
    # <function name> value", which named this package's private helpers
    code, out, err = run_cli(capsys, command, flag, "x1")
    assert code == 2
    assert out == ""
    rule = _FLAG_RULES[flag][0]
    assert err.strip().splitlines()[-1] == (
        f"ruinlab {command}: error: argument {flag}: 'x1': {rule}"
    )
    assert "invalid _" not in err


@pytest.mark.parametrize("command, flag", _typed_flags())
def test_out_of_range_flag_values_say_what_is_wrong(capsys, command, flag):
    _, value, rule = _FLAG_RULES[flag]
    code, out, err = run_cli(capsys, command, f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert err.strip().splitlines()[-1] == (
        f"ruinlab {command}: error: argument {flag}: {value!r}: {rule}"
    )


_TRANSFORM = ("transform", "--gain-factor", "0.75")
_NEGATIVE_VALUE_FLAGS = pytest.mark.parametrize(
    "argv, flag",
    [
        (("calibrate", "--loss-level", "0.25"), "--loss-factor"),
        (("simulate", "--p", "0.5", "--loss-level", "0.25", "--seed", "1", "--trials", "10"),
         "--loss-factor"),
        ((*_TRANSFORM, "--p", "0.5", "--target-gain-factor", "0.75",
          "--target-loss-factor", "-0.25"), "--loss-factor"),
        ((*_TRANSFORM, "--p", "0.5", "--loss-factor", "-0.75", "--target-gain-factor", "0.75"),
         "--target-loss-factor"),
        ((*_TRANSFORM, "--p", "0.1", "--loss-factor", "-0.75", "--target-loss-factor", "-0.9"),
         "--target-gain-factor"),
    ],
    ids=["calibrate", "simulate", "transform", "target-loss", "target-gain"],
)


@pytest.mark.parametrize("value", ["-1e-3", "-5e-1"])
@_NEGATIVE_VALUE_FLAGS
def test_negative_values_in_scientific_notation_follow_their_flag(capsys, argv, flag, value):
    # argparse takes only -1 and -0.001 style text for a negative number,
    # and read "-1e-3" after a flag as a missing value
    code, joined, _ = run_cli(capsys, *argv, f"{flag}={value}")
    assert code == 0
    assert run_cli(capsys, *argv, flag, value)[:2] == (0, joined)


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-INF", "-nan", "-NaN"])
@_NEGATIVE_VALUE_FLAGS
def test_negative_non_finite_values_follow_their_flag(capsys, argv, flag, value):
    # the space form must name the value's real problem, as the = form does,
    # not report a missing value
    code, out, err = run_cli(capsys, *argv, f"{flag}={value}")
    assert code == 2
    assert f"argument {flag}: {value!r}" in err
    assert run_cli(capsys, *argv, flag, value) == (code, out, err)


def test_non_integer_horizon_says_it_must_be_a_positive_integer(capsys):
    code, _, err = run_cli(capsys, "exact", "--p", "0.5", "--distance", "2",
                           "--horizon", "1e5")
    assert code == 2
    assert err.endswith("error: argument --horizon: '1e5': must be a positive integer\n")


def test_demo_states(capsys):
    payload = run_json(capsys, "demo")
    states = payload["result"]["states"]
    assert [s["yield_percent"] for s in states] == [2.8, 1.4, 2.8]
    assert [s["move"] for s in states] == [None, -1, 1]
    assert [s["lattice_position"] for s in states] == [0, -1, 0]


def test_demo_human_mentions_years(capsys):
    code, out, _ = run_cli(capsys, "demo")
    assert code == 0
    for token in ("2011", "2012", "2013", "2.8", "1.4"):
        assert token in out


# ----------------------------------------------------------------------
# formats, errors, manifests
# ----------------------------------------------------------------------


def test_percent_inputs_rejected_with_hint(capsys):
    code, _, err = run_cli(capsys, "calibrate", "--loss-level", "25%")
    assert code == 2
    assert "decimal" in err
    code, _, err = run_cli(capsys, "series", "--p", "50", "--distance", "2")
    assert code == 2
    assert "0.5" in err  # suggests the decimal form


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "calibrate", "--loss-level", "1.0")
    assert code == 2
    code, _, err = run_cli(capsys, "exact", "--p", "0.5", "--distance", "9",
                           "--horizon", "4")
    assert code == 2
    assert "horizon" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("exact", "--p", "0.5", "--distance", "3", "--horizon", str(10**16)),
        ("series", "--p", "0.5", "--distance", str(10**16), "--max-gains", "0"),
    ],
    ids=["exact", "series"],
)
def test_input_too_large_for_memory_exits_2(argv):
    # each asks for 35-71 PiB at once, which no allocator grants; exact
    # used to exit 1 with a traceback and series to spin in its path
    # counts, so a subprocess with a timeout keeps a relapse from hanging
    code, out, err = run_cli_process(*argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: not enough memory for this input: ")
    assert "Traceback" not in err


_SERIES_DIGITS_MESSAGE = ("max_gains=50000 at distance 3 needs up to 1,505,145,331 decimal "
                          "digits of path counts, past the limit of 65,000,000; lower max_gains")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("exact", "--p", "0.5", "--distance", "3", "--horizon", str(10**30)),
         f"horizon must be <= 2**59, got {10**30}"),
        (("exact", "--p", "0.5", "--distance", str(10**23), "--horizon", str(10**23)),
         f"distance must be <= 2**59, got {10**23}"),
        # a distance past the bound is named whatever the horizon: lowering
        # the horizon to the bound used to give "horizon must be >= distance"
        (("exact", "--p", "0.5", "--distance", str(2**60), "--horizon", str(2**59)),
         f"distance must be <= 2**59, got {2**60}"),
        (("series", "--p", "0.5", "--distance", "3", "--max-gains", str(10**30)),
         f"distance + 2 * max_gains must be <= 2**59, got {3 + 2 * 10**30}"),
        (("series", "--p", "0.5", "--distance", str(10**23), "--max-gains", "0"),
         f"distance + 2 * max_gains must be <= 2**59, got {10**23}"),
        (("compare", "--p", "0.5", "--distance", "3", "--max-gains", str(10**20),
          "--seed", "1"),
         f"distance + 2 * max_gains must be <= 2**59, got {3 + 2 * 10**20}"),
        # the DP horizon defaults to --max-steps, which the simulation takes
        # up to 2**62: the message names the flag that was given
        (("compare", "--p", "0.5", "--distance", "3", "--max-steps", str(2**60),
          "--seed", "1"),
         f"max_steps must be <= 2**59, got {2**60}"),
        (("compare", "--p", "0.5", "--distance", "3", "--max-steps", str(2**60),
          "--horizon", str(2**60), "--seed", "1"),
         f"horizon must be <= 2**59, got {2**60}"),
        (("compare", "--p", "0.5", "--distance", str(2**60), "--max-steps", str(2**60),
          "--horizon", str(2**60), "--seed", "1"),
         f"distance must be <= 2**59, got {2**60}"),
        (("compare", "--p", "0.5", "--distance", str(2**60), "--max-steps", str(2**60),
          "--horizon", str(2**59), "--seed", "1"),
         f"distance must be <= 2**59, got {2**60}"),
        # within the kernel bound, but the path counts would fill 1.5e9 digits
        (("series", "--p", "0.5", "--distance", "3", "--max-gains", "50000"),
         _SERIES_DIGITS_MESSAGE),
        (("compare", "--p", "0.5", "--distance", "3", "--max-gains", "50000", "--seed", "1"),
         _SERIES_DIGITS_MESSAGE),
    ],
    ids=["exact-horizon", "exact-distance", "exact-distance-lower-horizon",
         "series-max-gains", "series-distance", "compare-max-gains", "compare-max-steps",
         "compare-horizon", "compare-distance", "compare-distance-lower-horizon",
         "series-digits", "compare-digits"],
)
def test_inputs_past_the_kernel_bound_name_their_flag(argv, message):
    # numpy refused these arrays with "Maximum allowed size/dimension
    # exceeded", and compare only after its whole simulation; the one
    # stderr line also shows that compare ran no batch.  A subprocess with
    # a timeout keeps a relapse into building the input from hanging
    code, out, err = run_cli_process(*argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("calibrate", "--loss-level", "0.25", "--loss-factor=-1e-17"),
        ("transform", "--p", "0.5", "--gain-factor", "0.75", "--loss-factor", "-0.75",
         "--target-gain-factor", "0.75", "--target-loss-factor=-1e-17",
         "--loss-level", "0.25"),
        ("simulate", "--p", "0.5", "--loss-level", "0.25", "--loss-factor=-1e-17",
         "--seed", "1"),
    ],
    ids=["calibrate", "transform", "simulate"],
)
def test_loss_factor_that_rounds_to_no_loss_names_it(capsys, argv):
    # 1 + -1e-17 == 1.0, so log(1 + loss_factor) was 0 and the distance a
    # ZeroDivisionError traceback (exit 1)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "loss_factor" in err


def test_garbage_input_never_panics(capsys):
    for argv in (
        ["calibrate", "--loss-level", "banana"],
        ["series", "--p", "0.5", "--distance", "two"],
        ["simulate", "--p", "0.5", "--distance", "2", "--seed", "1e99"],
        ["nonsense-command"],
        [],
    ):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 2


def test_json_key_set_depends_only_on_command(capsys):
    a = run_json(capsys, "calibrate", "--loss-level", "0.25")
    b = run_json(capsys, "calibrate", "--loss-level", "0.9", "--loss-factor", "-0.1")
    assert set(a["result"]) == set(b["result"])
    assert set(a["manifest"]) == set(b["manifest"]) == {
        "command", "parameters", "tool_version", "seed",
    }
    s1 = run_json(capsys, "simulate", "--p", "0", "--distance", "2",
                  "--trials", "10", "--seed", "1")
    s2 = run_json(capsys, "simulate", "--p", "1", "--distance", "3",
                  "--trials", "20", "--seed", "9", "--workers", "2")
    assert set(s1["result"]) == set(s2["result"])


def test_engine_record_only_in_monte_carlo_manifests(capsys):
    import numpy as np

    engine = {"algorithm": "bridge blocks + byte steps (engine 0.3)",
              "bit_generator": "Philox", "batch_trials": 8192, "numpy": np.__version__}
    for argv in (
        ("simulate", "--p", "0.5", "--distance", "2", "--trials", "10", "--seed", "1"),
        ("compare", "--p", "0.5", "--distance", "2", "--trials", "10",
         "--max-steps", "50", "--seed", "1"),
    ):
        manifest = run_json(capsys, *argv)["manifest"]
        assert manifest["engine"] == engine
        assert manifest["tool_version"] == "0.3.0"
    for argv in (
        ("calibrate", "--loss-level", "0.25"),
        ("transform", "--p", "0.5", "--gain-factor", "0.75", "--loss-factor",
         "-0.75", "--target-gain-factor", "0.75", "--target-loss-factor", "-0.25"),
        ("series", "--p", "0.5", "--distance", "2", "--max-gains", "3"),
        ("exact", "--p", "0.5", "--distance", "2", "--horizon", "10"),
    ):
        manifest = run_json(capsys, *argv)["manifest"]
        assert set(manifest) == {"command", "parameters", "tool_version", "seed"}


def test_manifest_echoes_defaults(capsys):
    payload = run_json(capsys, "series", "--p", "0.5", "--distance", "2")
    parameters = payload["manifest"]["parameters"]
    assert parameters["max_gains"] == 200
    assert parameters["mode"] == "exact"
    assert payload["manifest"]["tool_version"]


def test_json_encoder_contract():
    class Record(NamedTuple):
        zeta: float
        alpha: tuple
        steps: dict

    inner = Record(1.0, (), {})
    encoded = _jsonable(Record(math.nan, (1.5, -math.inf, (2,), inner), {9: 0.5, 10: 1}))
    assert list(encoded) == ["zeta", "alpha", "steps"]  # declaration order
    # a record is a tuple too, but encodes as a map at any depth
    inner_encoded = {"zeta": 1.0, "alpha": [], "steps": {}}
    assert encoded == {"zeta": None, "alpha": [1.5, None, [2], inner_encoded],
                       "steps": {9: 0.5, 10: 1}}
    # an engine's step map passes through; json writes its int keys as text
    assert json.dumps(encoded["steps"]) == '{"9": 0.5, "10": 1}'
    assert _jsonable(None) is None


@pytest.mark.parametrize("value", ["json", pytest.param("", id="empty")])
def test_environment_does_not_pick_the_format(capsys, monkeypatch, value):
    # --format alone picks the output, whatever the environment holds
    monkeypatch.setenv("RUINLAB_FORMAT", value)
    code, out, _ = run_cli(capsys, "calibrate", "--loss-level", "0.25")
    assert code == 0
    assert out.startswith("loss level          0.25\n")
    monkeypatch.delenv("RUINLAB_FORMAT")
    assert run_cli(capsys, "calibrate", "--loss-level", "0.25")[:2] == (0, out)


def test_csv_uses_header_and_dot_decimals(capsys):
    code, out, _ = run_cli(capsys, "calibrate", "--loss-level", "0.25",
                           "--format", "csv")
    lines = out.strip().splitlines()
    header = lines[1].split(",")
    row = lines[2].split(",")
    assert header[0] == "loss_level"
    assert row[0] == "0.25"
    assert "," not in row[0] and "." in row[0]


def test_progress_goes_to_stderr_not_stdout(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--p", "0.5", "--distance", "2", "--trials", "100",
        "--max-steps", "50", "--seed", "5", "--format", "json",
    )
    assert code == 0
    json.loads(out)  # stdout is pure JSON
    assert "batches" in err
