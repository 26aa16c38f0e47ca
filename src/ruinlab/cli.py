"""Command-line surface: calibration, series, oracles, simulation, transform.

Every command supports ``--format human|json|csv`` (default from the
``RUINLAB_FORMAT`` environment variable, else ``human``).  JSON goes to
stdout with the run manifest embedded; progress and log lines go to
stderr.  Exit codes: 0 success, 2 input-domain errors, 3 validity errors
(approximation outside its region, infeasible transform targets).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Sequence

from . import __version__
from .errors import DomainError, RuinlabError, ValidityError
from .model import TrialModel, calibrate
from .montecarlo import SimConfig, compare_methods, simulate
from .oracle import ruin_probability_dp
from .series import ruin_series
from .transform import rebalance, rebalanced_ruin_inputs

FORMATS = ("human", "json", "csv")
FORMAT_ENV_VAR = "RUINLAB_FORMAT"

DEFAULT_MAX_GAINS = 200
DEFAULT_HORIZON = 100_000
DEFAULT_TRIALS = 100_000

# Demo scenario: U.S. ten-year treasury yields, summers of 2011-2013.
# 2.8% halved to 1.4%, then doubled back: one loss step and one gain step
# on the halving/doubling lattice.
DEMO_SCENARIO = "us-10y-treasury-2011-2013"
DEMO_STATES = (("2011", 2.8), ("2012", 1.4), ("2013", 2.8))


@dataclass(frozen=True)
class CommandOutput:
    result: dict
    human: list[str]
    csv_header: tuple[str, ...]
    csv_rows: list[tuple]


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code) if exc.code else 0
    try:
        output = args.handler(args)
    except ValidityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RuinlabError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(args, output)
    return 0


# ----------------------------------------------------------------------
# argument types
# ----------------------------------------------------------------------


def _reject_percent(text: str) -> str:
    if text.endswith("%"):
        raise argparse.ArgumentTypeError(
            f"{text!r}: give probabilities and fractions as decimals "
            f"(e.g. 0.5), not percentages"
        )
    return text


def _percent_hint(value: float) -> str:
    return f" (did you mean {value / 100.0}?)" if 1.0 < value <= 100.0 else ""


def _probability(text: str) -> float:
    value = float(_reject_percent(text))
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"{text!r}: probability must be in [0, 1]{_percent_hint(value)}"
        )
    return value


def _loss_level(text: str) -> float:
    value = float(_reject_percent(text))
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"{text!r}: loss level must be a strict fraction in (0, 1)"
            f"{_percent_hint(value)}"
        )
    return value


def _loss_factor(text: str) -> float:
    value = float(_reject_percent(text))
    if not -1.0 < value < 0.0:
        raise argparse.ArgumentTypeError(
            f"{text!r}: loss factor must be a signed fraction in (-1, 0), "
            f"e.g. -0.5 for a 50% loss"
        )
    return value


def _signed_fraction(text: str) -> float:
    return float(_reject_percent(text))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r}: must be a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r}: must be >= 0")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(
            f"{text!r}: seed must be a 64-bit unsigned integer"
        )
    return value


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruinlab",
        description="Multiplicative gambler's-ruin toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"ruinlab {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=FORMATS,
        default=os.environ.get(FORMAT_ENV_VAR, "human"),
        help=f"output format (default from ${FORMAT_ENV_VAR}, else human)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "calibrate",
        parents=[common],
        help="map a loss level to its integer lattice distance",
    )
    p.add_argument("--loss-level", type=_loss_level, required=True)
    p.add_argument("--loss-factor", type=_loss_factor, default=-0.5)
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser(
        "series",
        parents=[common],
        help="evaluate the combinatorial ruin series",
    )
    p.add_argument("--p", type=_probability, required=True, help="per-trial gain probability")
    p.add_argument("--distance", type=_positive_int, required=True)
    p.add_argument("--max-gains", type=_nonnegative_int, default=DEFAULT_MAX_GAINS)
    p.add_argument("--mode", choices=("paper", "exact"), default="exact")
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser(
        "exact",
        parents=[common],
        help="exact ruin probability within a horizon (first-passage masses)",
    )
    p.add_argument("--p", type=_probability, required=True)
    p.add_argument("--distance", type=_positive_int, required=True)
    p.add_argument("--horizon", type=_positive_int, default=DEFAULT_HORIZON)
    p.add_argument(
        "--distribution",
        action="store_true",
        help="include the ruin-time distribution (CSV: step,probability_mass rows)",
    )
    p.set_defaults(handler=_cmd_exact)

    p = sub.add_parser(
        "simulate",
        parents=[common],
        help="Monte Carlo simulation of the ruin process",
    )
    p.add_argument("--p", type=_probability, required=True)
    p.add_argument("--distance", type=_positive_int)
    p.add_argument("--loss-level", type=_loss_level, help="alternative to --distance")
    p.add_argument("--loss-factor", type=_loss_factor, default=-0.5)
    p.add_argument("--trials", type=_positive_int, default=DEFAULT_TRIALS)
    p.add_argument("--max-steps", type=_positive_int, default=DEFAULT_HORIZON)
    p.add_argument("--seed", type=_seed, required=True, help="required: no silent entropy")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "transform",
        parents=[common],
        help="rebalance probabilities onto new gain/loss legs",
    )
    p.add_argument("--p", type=_probability, required=True, help="original gain probability")
    p.add_argument("--gain-factor", type=_signed_fraction, required=True)
    p.add_argument("--loss-factor", type=_loss_factor, required=True)
    p.add_argument("--target-gain-factor", type=_signed_fraction, required=True)
    p.add_argument("--target-loss-factor", type=_signed_fraction, required=True)
    p.add_argument(
        "--loss-level",
        type=_loss_level,
        help="also calibrate the transformed ruin distance at this level",
    )
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser(
        "compare",
        parents=[common],
        help="align series, approximations, closed form, DP, and Monte Carlo",
    )
    p.add_argument("--p", type=_probability, required=True)
    p.add_argument("--distance", type=_positive_int, required=True)
    p.add_argument("--trials", type=_positive_int, default=DEFAULT_TRIALS)
    p.add_argument("--max-steps", type=_positive_int, default=DEFAULT_HORIZON)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--max-gains", type=_nonnegative_int, default=DEFAULT_MAX_GAINS)
    p.add_argument(
        "--horizon",
        type=_positive_int,
        help="DP reference horizon (default: --max-steps)",
    )
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser(
        "demo",
        parents=[common],
        help="two-step halving/doubling walk through 2011-2013 treasury yields",
    )
    p.set_defaults(handler=_cmd_demo)

    return parser


# ----------------------------------------------------------------------
# command handlers
# ----------------------------------------------------------------------


def _cmd_calibrate(args: argparse.Namespace) -> CommandOutput:
    model = TrialModel(p_gain=0.5, gain_factor=1.0, loss_factor=args.loss_factor)
    spec = calibrate(model, args.loss_level)
    result = {
        "loss_level": spec.loss_level,
        "loss_factor": args.loss_factor,
        "distance_exact": spec.distance_exact,
        "distance": spec.distance,
        "implied_loss_level": spec.implied_loss_level,
    }
    human = [
        f"loss level          {_fmt(spec.loss_level)}",
        f"loss factor         {_fmt(args.loss_factor)}",
        f"distance (exact)    {_fmt(spec.distance_exact)}",
        f"distance (lattice)  {spec.distance}",
        f"implied loss level  {_fmt(spec.implied_loss_level)}",
    ]
    header = ("loss_level", "loss_factor", "distance_exact", "distance", "implied_loss_level")
    rows = [
        (spec.loss_level, args.loss_factor, spec.distance_exact, spec.distance,
         spec.implied_loss_level)
    ]
    return CommandOutput(result, human, header, rows)


def _cmd_series(args: argparse.Namespace) -> CommandOutput:
    report = ruin_series(args.p, args.distance, args.max_gains, args.mode)
    tail = "inf" if math.isinf(report.tail_bound) else _fmt(report.tail_bound)
    human = [
        f"p={_fmt(args.p)} distance={args.distance} mode={args.mode}",
        f"cumulative through N={report.truncation}: {_fmt(report.cumulative)}",
        f"geometric tail bound: {tail}",
        "",
        f"{'N':>5} {'count':>24} {'probability':>16} {'cumulative':>16}",
    ]
    for term in report.terms:
        count = term.path_count_text
        if len(count) > 24:
            try:
                count = f"{float(term.path_count):.6e}"
            except OverflowError:  # past the double range: round the exact count
                from decimal import Decimal  # imported only on this rare path
                count = f"{Decimal(term.path_count):.6e}"
        human.append(
            f"{term.n_gains:>5} {count:>24} {term.probability:>16.9e} "
            f"{term.cumulative:>16.12f}"
        )
    return CommandOutput(
        report.to_dict(),
        human,
        ("N", "count", "probability", "cumulative"),
        list(report.csv_rows()),
    )


def _cmd_exact(args: argparse.Namespace) -> CommandOutput:
    absorption = ruin_probability_dp(
        args.p, args.distance, args.horizon, keep_distribution=args.distribution
    )
    result = {"p_gain": args.p, "distance": args.distance, **absorption.to_dict()}
    mean = absorption.expected_time_censored
    human = [
        f"p={_fmt(args.p)} distance={args.distance} horizon={args.horizon}",
        f"ruin probability within horizon  {_fmt(absorption.ruin_probability_within_horizon)}",
        f"survival mass                    {_fmt(absorption.survival_mass)}",
        f"mean time to ruin (censored)     "
        f"{'undefined (no ruin mass)' if math.isnan(mean) else _fmt(mean)}",
    ]
    if args.distribution:
        header = ("step", "probability_mass")
        rows = [(t, m) for t, m in sorted((absorption.ruin_time_distribution or {}).items())]
    else:
        header = (
            "p", "distance", "horizon", "ruin_probability_within_horizon",
            "survival_mass", "expected_time_censored",
        )
        rows = [
            (args.p, args.distance, args.horizon,
             absorption.ruin_probability_within_horizon, absorption.survival_mass,
             "" if math.isnan(mean) else mean)
        ]
    return CommandOutput(result, human, header, rows)


def _resolve_sim_config(args: argparse.Namespace) -> SimConfig:
    if args.loss_level is not None and args.distance is not None:
        raise DomainError("give either --distance or --loss-level, not both")
    distance = args.distance
    if args.loss_level is not None:
        model = TrialModel(p_gain=args.p, gain_factor=1.0, loss_factor=args.loss_factor)
        distance = calibrate(model, args.loss_level).distance
    if distance is None:
        raise DomainError("one of --distance or --loss-level is required")
    return SimConfig(args.p, distance, args.trials, args.max_steps, args.seed, args.workers)


def _cmd_simulate(args: argparse.Namespace) -> CommandOutput:
    config = _resolve_sim_config(args)
    result = simulate(config, progress=_progress_printer("simulate"))
    mean = result.mean_time_to_ruin
    human = [
        f"p={_fmt(config.p)} distance={config.distance} "
        f"trials={config.trials} max_steps={config.max_steps} seed={config.seed}",
        f"ruined    {result.ruined}",
        f"censored  {result.censored}",
        f"ruin frequency  {_fmt(result.ruin_frequency)}  (stderr {_fmt(result.stderr)})",
        f"mean time to ruin  "
        f"{'undefined (no ruined trials)' if math.isnan(mean) else _fmt(mean)}",
        f"distinct ruin times  {len(result.time_histogram)}",
    ]
    rows = [(t, c) for t, c in sorted(result.time_histogram.items())]
    return CommandOutput(result.to_dict(), human, ("step", "count"), rows)


def _cmd_transform(args: argparse.Namespace) -> CommandOutput:
    model = TrialModel(
        p_gain=args.p, gain_factor=args.gain_factor, loss_factor=args.loss_factor
    )
    result = rebalance(model, args.target_gain_factor, args.target_loss_factor)
    rebalanced = (
        rebalanced_ruin_inputs(result, args.loss_level)
        if args.loss_level is not None
        else None
    )
    payload = result.to_dict()
    payload["rebalanced"] = rebalanced.to_dict() if rebalanced else None
    human = [
        f"original: p_gain={_fmt(model.p_gain)} legs +{_fmt(model.gain_factor)}"
        f"/{_fmt(model.loss_factor)}  mean={_fmt(result.matched_mean)}",
        f"targets:  +{_fmt(args.target_gain_factor)}/{_fmt(args.target_loss_factor)}",
        f"p_loss_adjusted  {_fmt(result.p_loss_adjusted)}",
        f"p_gain_adjusted  {_fmt(result.p_gain_adjusted)}",
    ]
    if result.warnings:
        human.append(f"warnings: {', '.join(result.warnings)}")
    if rebalanced:
        human.append(
            f"rebalanced ruin inputs at loss level {_fmt(args.loss_level)}: "
            f"p_gain={_fmt(rebalanced.p_gain)} distance={rebalanced.distance} "
            f"(exact {_fmt(rebalanced.distance_exact)})"
        )
        if rebalanced.warnings:
            human.append(f"rebalanced warnings: {', '.join(rebalanced.warnings)}")
    header = (
        "p_loss_adjusted", "p_gain_adjusted", "matched_mean",
        "target_gain_factor", "target_loss_factor",
        "rebalanced_distance", "rebalanced_distance_exact", "warnings",
    )
    rows = [
        (result.p_loss_adjusted, result.p_gain_adjusted, result.matched_mean,
         args.target_gain_factor, args.target_loss_factor,
         rebalanced.distance if rebalanced else "",
         rebalanced.distance_exact if rebalanced else "",
         ";".join(rebalanced.warnings if rebalanced else result.warnings))
    ]
    return CommandOutput(payload, human, header, rows)


def _cmd_compare(args: argparse.Namespace) -> CommandOutput:
    config = SimConfig(
        args.p, args.distance, args.trials, args.max_steps, args.seed, args.workers
    )
    comparison = compare_methods(
        config,
        max_gains=args.max_gains,
        dp_horizon=args.horizon,
        progress=_progress_printer("compare"),
    )
    human = [
        f"p={_fmt(args.p)} distance={args.distance} "
        f"(DP reference horizon {comparison.dp_horizon})",
        "",
        "ruin probability:",
        f"  {'method':<24} {'value':>14} {'|dev from DP|':>14}  note",
    ]
    for e in comparison.ruin_estimates:
        human.append(
            f"  {e.method:<24} {_cell(e.value):>14} {_cell(e.abs_dev_from_dp):>14}"
            f"  {e.note if e.valid else '[invalid] ' + e.note}"
        )
    human += ["", "expected time to ruin (censored):",
              f"  {'method':<24} {'value':>14} {'|dev from DP|':>14}  note"]
    for e in comparison.time_estimates:
        human.append(
            f"  {e.method:<24} {_cell(e.value):>14} {_cell(e.abs_dev_from_dp):>14}"
            f"  {e.note if e.valid else '[invalid] ' + e.note}"
        )
    header = ("section", "method", "value", "valid", "abs_dev_from_dp", "note")
    rows = [
        ("ruin_probability", e.method, _csv_cell(e.value), e.valid,
         _csv_cell(e.abs_dev_from_dp), e.note)
        for e in comparison.ruin_estimates
    ] + [
        ("expected_time", e.method, _csv_cell(e.value), e.valid,
         _csv_cell(e.abs_dev_from_dp), e.note)
        for e in comparison.time_estimates
    ]
    return CommandOutput(comparison.to_dict(), human, header, rows)


def _cmd_demo(args: argparse.Namespace) -> CommandOutput:
    states = []
    position = 0
    prev = None
    for year, level in DEMO_STATES:
        move = None
        if prev is not None:
            move = 1 if level > prev else -1
            position += move
        states.append(
            {"year": year, "yield_percent": level, "move": move, "lattice_position": position}
        )
        prev = level
    result = {"scenario": DEMO_SCENARIO, "states": states}
    human = [
        "Ten-year treasury yield, summers of 2011-2013, on the halving/doubling lattice:",
        "",
        f"  {'year':<6} {'yield':>6}  {'move':>5}  {'position':>8}",
    ]
    for s in states:
        move = "-" if s["move"] is None else f"{s['move']:+d}"
        human.append(
            f"  {s['year']:<6} {s['yield_percent']:>5.1f}%  {move:>5}  {s['lattice_position']:>8}"
        )
    human += [
        "",
        "Each year the yield either doubles (+1, a gain step) or halves (-1, a",
        "loss step): 2.8% fell to 1.4%, then recovered to 2.8%.  A loss level of",
        "0.25 from the 2011 start would sit two lattice steps down, at 0.7%.",
    ]
    rows = [
        (s["year"], s["yield_percent"], "" if s["move"] is None else s["move"],
         s["lattice_position"])
        for s in states
    ]
    return CommandOutput(
        result, human, ("year", "yield_percent", "move", "lattice_position"), rows
    )


# ----------------------------------------------------------------------
# output plumbing
# ----------------------------------------------------------------------


def _manifest(args: argparse.Namespace) -> dict:
    parameters = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("handler", "command")
    }
    return {
        "command": args.command,
        "parameters": parameters,
        "tool_version": __version__,
        "seed": getattr(args, "seed", None),
    }


def _emit(args: argparse.Namespace, output: CommandOutput) -> None:
    manifest = _manifest(args)
    if args.format == "json":
        print(json.dumps({"manifest": manifest, "result": output.result}))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        # manifest rides along as a comment line so the rows stay parseable
        print(f"# manifest: {json.dumps(manifest)}")
        writer.writerow(output.csv_header)
        writer.writerows(output.csv_rows)
    else:
        for line in output.human:
            print(line)
        print(f"[ruinlab {__version__} | {args.command} | {json.dumps(manifest['parameters'])}]")


def _progress_printer(label: str):
    def report(done: int, total: int) -> None:
        stride = max(1, total // 10)
        if done == total or done % stride == 0:
            print(f"{label}: {done}/{total} batches", file=sys.stderr)

    return report


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _cell(value: float | None) -> str:
    return "-" if value is None else f"{value:.9g}"


def _csv_cell(value: float | None):
    return "" if value is None else value
