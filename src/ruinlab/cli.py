"""Command-line surface: calibration, series, oracles, simulation, transform.

Every command supports ``--format human|json|csv`` (default ``human``);
no environment variable changes the output.  JSON goes to stdout with the
run manifest embedded; progress and log lines go to stderr.  Exit codes:
0 success, 2 input-domain errors and inputs too large for memory, 3
validity errors (approximation outside its region, infeasible transform
targets), 141 (128 + SIGPIPE) when the reader closes stdout before the
output is written, as in ``ruinlab exact ... | head``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import Callable, Iterable, NamedTuple, Sequence

from . import __getattr__, __version__  # noqa: F401
from .errors import DomainError, RuinlabError, ValidityError

# Every ruinlab name but the errors loads on first use through the package's
# loader, so a command loads only the modules it calls (the engines import
# numpy).  Handlers call them as ``_engines.<name>``, so a replacement bound
# here (a test double, a tracer's wrapper) is what runs.
_engines = sys.modules[__name__]

FORMATS = ("human", "json", "csv")

DEFAULT_MAX_GAINS = 200
DEFAULT_HORIZON = 100_000
DEFAULT_TRIALS = 100_000
DEFAULT_LOSS_FACTOR = -0.5

# Demo scenario: U.S. ten-year treasury yields, summers of 2011-2013.
# 2.8% halved to 1.4%, then doubled back: one loss step and one gain step
# on the halving/doubling lattice.  Rows: year, yield in percent, lattice
# move (none at the start) and lattice position.
DEMO_SCENARIO = "us-10y-treasury-2011-2013"
DEMO_STATES = (("2011", 2.8, None, 0), ("2012", 1.4, -1, -1), ("2013", 2.8, 1, 0))


class CommandOutput(NamedTuple):
    # renderers: _emit calls only the one that --format selects
    result: Callable[[], dict]  # the JSON record
    human: Callable[[], list[str]]
    table: Callable[[], tuple[tuple[str, ...], Iterable[tuple]]]  # CSV header, rows
    engine: dict | None = None  # Monte Carlo commands: see engine_record


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code) if exc.code else 0
    try:  # the renderers run in _emit, so its failures map alike
        _emit(args, args.handler(args))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send the interpreter's final flush nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except ValidityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RuinlabError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory for this input: {exc}", file=sys.stderr)
        return 2
    return 0


# ----------------------------------------------------------------------
# argument types
# ----------------------------------------------------------------------


def _arg_type(convert, accept, parse_rule: str, range_rule: str = "", percent_hint=False):
    """The argparse type of one kind of flag value: ``convert`` the text,
    then ``accept`` the value.  Each failure names the text and states its
    rule (``range_rule`` defaults to ``parse_rule``); a float flag also
    rejects percentages, and with ``percent_hint`` a value in (1, 100]
    suggests its decimal form.  A ValueError would make argparse name this
    function, so every failure is an ArgumentTypeError."""

    def parse(text: str):
        if convert is float and text.endswith("%"):
            raise argparse.ArgumentTypeError(
                f"{text!r}: give probabilities and fractions as decimals "
                f"(e.g. 0.5), not percentages"
            )
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r}: {parse_rule}") from None
        if not accept(value):
            hint = percent_hint and 1.0 < value <= 100.0
            raise argparse.ArgumentTypeError(
                f"{text!r}: {range_rule or parse_rule}"
                + (f" (did you mean {value / 100.0}?)" if hint else "")
            )
        return value

    return parse


_probability = _arg_type(
    float, lambda v: 0.0 <= v <= 1.0, "probability must be a number in [0, 1]",
    "probability must be in [0, 1]", percent_hint=True,
)
_loss_level = _arg_type(
    float, lambda v: 0.0 < v < 1.0, "loss level must be a number in (0, 1)",
    "loss level must be a strict fraction in (0, 1)", percent_hint=True,
)
_loss_factor = _arg_type(
    float, lambda v: -1.0 < v < 0.0, "loss factor must be a number in (-1, 0)",
    "loss factor must be a signed fraction in (-1, 0), e.g. -0.5 for a 50% loss",
)
_signed_fraction = _arg_type(float, math.isfinite, "must be a finite number")
_positive_int = _arg_type(int, lambda v: v >= 1, "must be a positive integer")
_nonnegative_int = _arg_type(int, lambda v: v >= 0, "must be an integer >= 0", "must be >= 0")
_seed = _arg_type(int, lambda v: 0 <= v < 2**64, "seed must be a 64-bit unsigned integer")


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads ``-1e-3`` and ``-inf`` as negative numbers, as argparse reads
    ``-0.001`` (no ruinlab option looks like a number)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ruinlab",
        description="Multiplicative gambler's-ruin toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"ruinlab {__version__}")
    common = _Parser(add_help=False)
    common.add_argument(
        "--format",
        choices=FORMATS,
        default="human",
        help="output format (default: human)",
    )
    walk = _Parser(add_help=False)  # series, exact, compare
    walk.add_argument("--p", type=_probability, required=True, help="per-trial gain probability")
    walk.add_argument("--distance", type=_positive_int, required=True)
    run = _Parser(add_help=False)  # simulate, compare
    run.add_argument("--trials", type=_positive_int, default=DEFAULT_TRIALS)
    run.add_argument("--max-steps", type=_positive_int, default=DEFAULT_HORIZON)
    run.add_argument("--seed", type=_seed, required=True, help="required: no silent entropy")
    run.add_argument("--workers", type=_positive_int,
                     help="at most this many processes (default: one per CPU); "
                          "results never depend on it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "calibrate",
        parents=[common],
        help="map a loss level to its integer lattice distance",
    )
    p.add_argument("--loss-level", type=_loss_level, required=True)
    p.add_argument("--loss-factor", type=_loss_factor, default=DEFAULT_LOSS_FACTOR)
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser(
        "series",
        parents=[common, walk],
        help="evaluate the combinatorial ruin series",
    )
    p.add_argument("--max-gains", type=_nonnegative_int, default=DEFAULT_MAX_GAINS)
    p.add_argument("--mode", choices=("paper", "exact"), default="exact")
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser(
        "exact",
        parents=[common, walk],
        help="exact ruin probability within a horizon (first-passage masses)",
    )
    p.add_argument("--horizon", type=_positive_int, default=DEFAULT_HORIZON)
    p.add_argument(
        "--distribution",
        action="store_true",
        help="include the ruin-time distribution, JSON and CSV only "
             "(CSV: step,probability_mass rows)",
    )
    p.set_defaults(handler=_cmd_exact)

    p = sub.add_parser(
        "simulate",
        parents=[common, run],
        help="Monte Carlo simulation of the ruin process",
    )
    p.add_argument("--p", type=_probability, required=True)
    barrier = p.add_mutually_exclusive_group(required=True)
    barrier.add_argument("--distance", type=_positive_int)
    barrier.add_argument("--loss-level", type=_loss_level, help="alternative to --distance")
    p.add_argument("--loss-factor", type=_loss_factor, default=DEFAULT_LOSS_FACTOR)
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
        parents=[common, walk, run],
        help="align series, approximations, closed forms and Monte Carlo with the DP, "
             "all at --max-steps",
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
    spec = _engines.calibrate(args.loss_level, args.loss_factor)
    return CommandOutput(lambda: _jsonable(spec), lambda: [
        f"loss level          {_fmt(spec.loss_level)}",
        f"loss factor         {_fmt(spec.loss_factor)}",
        f"distance (exact)    {_fmt(spec.distance_exact)}",
        f"distance (lattice)  {spec.distance}",
        f"implied loss level  {_fmt(spec.implied_loss_level)}",
    ], lambda: (tuple(_jsonable(spec)), [tuple(_jsonable(spec).values())]))


def _cmd_series(args: argparse.Namespace) -> CommandOutput:
    report = _engines.ruin_series(args.p, args.distance, args.max_gains, args.mode)

    def terms() -> Iterable[dict]:
        # JSON and CSV carry each count as exact decimal text: JSON readers
        # would round a count past 2**53
        for term in report.terms:
            try:
                count = str(term.path_count)
            except ValueError:  # past Python's int-to-str digit limit (4300 by default)
                from decimal import Decimal  # imported only on this rare path
                count = str(Decimal(term.path_count))
            yield {**_jsonable(term), "path_count": count}

    def human() -> list[str]:
        tail = "inf" if math.isinf(report.tail_bound) else _fmt(report.tail_bound)
        lines = [
            f"p={_fmt(args.p)} distance={args.distance} mode={args.mode}",
            f"cumulative through N={report.truncation}: {_fmt(report.cumulative)}",
            f"geometric tail bound: {tail}",
            "",
            f"{'N':>5} {'count':>24} {'probability':>16} {'cumulative':>16}",
        ]
        for term in report.terms:
            count = term.path_count
            if count >= 10**24:  # wider than its column: the short form
                from decimal import Decimal  # imported only for long counts
                count = f"{Decimal(count):.6e}"
            lines.append(
                f"{term.n_gains:>5} {count:>24} {term.probability:>16.9e} "
                f"{term.cumulative:>16.12f}"
            )
        return lines

    return CommandOutput(
        lambda: {**_jsonable(report._replace(terms=())), "terms": list(terms())},
        human,
        lambda: (("N", "count", "probability", "cumulative"),
                 (tuple(term.values()) for term in terms())),
    )


def _cmd_exact(args: argparse.Namespace) -> CommandOutput:
    absorption = _engines.ruin_probability_dp(  # the human lines never print the step map
        args.p, args.distance, args.horizon,
        keep_distribution=args.distribution and args.format != "human",
    )
    mean = absorption.expected_time_censored

    def result() -> dict:
        return {"p_gain": args.p, "distance": args.distance, **_jsonable(absorption)}

    def table() -> tuple[tuple[str, ...], Iterable[tuple]]:
        if args.distribution:
            return ("step", "probability_mass"), absorption.ruin_time_distribution.items()
        header = ("p", "distance", "horizon", "ruin_probability_within_horizon",
                  "survival_mass", "expected_time_censored")
        record = result()
        return header, [(args.p, *(record[key] for key in header[1:]))]

    return CommandOutput(result, lambda: [
        f"p={_fmt(args.p)} distance={args.distance} horizon={args.horizon}",
        f"ruin probability within horizon  {_fmt(absorption.ruin_probability_within_horizon)}",
        f"survival mass                    {_fmt(absorption.survival_mass)}",
        f"mean time to ruin (censored)     "
        f"{'undefined (no ruin mass)' if math.isnan(mean) else _fmt(mean)}",
    ], table)


def _cmd_simulate(args: argparse.Namespace) -> CommandOutput:
    distance = args.distance  # argparse takes exactly one of the two barrier flags
    if args.loss_level is not None:
        distance = _engines.calibrate(args.loss_level, args.loss_factor).distance
    elif args.loss_factor != DEFAULT_LOSS_FACTOR:
        # the manifest records the default, so a replayed manifest passes it
        # back; any other value would be silently ignored
        raise DomainError("--loss-factor needs --loss-level: it only calibrates a loss level "
                          "to a distance")
    config = _engines.SimConfig(args.p, distance, args.trials, args.max_steps, args.seed,
                                args.workers)
    result = _engines.simulate(config, progress=_progress_printer("simulate"))
    mean = result.mean_time_to_ruin
    return CommandOutput(lambda: _jsonable(result), lambda: [
        f"p={_fmt(config.p)} distance={config.distance} "
        f"trials={config.trials} max_steps={config.max_steps} seed={config.seed}",
        f"ruined    {result.ruined}",
        f"censored  {result.censored}",
        f"ruin frequency  {_fmt(result.ruin_frequency)}  (stderr {_fmt(result.stderr)})",
        f"mean time to ruin  "
        f"{'undefined (no ruined trials)' if math.isnan(mean) else _fmt(mean)}",
        f"distinct ruin times  {len(result.time_histogram)}",
    ], lambda: (("step", "count"), result.time_histogram.items()), _engines.engine_record())


def _cmd_transform(args: argparse.Namespace) -> CommandOutput:
    model = _engines.TrialModel(
        p_gain=args.p, gain_factor=args.gain_factor, loss_factor=args.loss_factor
    )
    result = _engines.rebalance(model, args.target_gain_factor, args.target_loss_factor)
    rebalanced = (
        _engines.rebalanced_ruin_inputs(result, args.loss_level)
        if args.loss_level is not None
        else None
    )

    def human() -> list[str]:
        lines = [
            f"original: p_gain={_fmt(model.p_gain)} legs +{_fmt(model.gain_factor)}"
            f"/{_fmt(model.loss_factor)}  mean={_fmt(result.matched_mean)}",
            f"targets:  +{_fmt(args.target_gain_factor)}/{_fmt(args.target_loss_factor)}",
            f"p_loss_adjusted  {_fmt(result.p_loss_adjusted)}",
            f"p_gain_adjusted  {_fmt(result.p_gain_adjusted)}",
        ]
        if result.warnings:
            lines.append(f"warnings: {', '.join(result.warnings)}")
        if rebalanced:
            lines.append(
                f"rebalanced ruin inputs at loss level {_fmt(args.loss_level)}: "
                f"p_gain={_fmt(rebalanced.p_gain)} distance={rebalanced.distance} "
                f"(exact {_fmt(rebalanced.distance_exact)})"
            )
            if rebalanced.warnings:
                lines.append(f"rebalanced warnings: {', '.join(rebalanced.warnings)}")
        return lines

    def table() -> tuple[tuple[str, ...], Iterable[tuple]]:
        row = {
            "p_loss_adjusted": result.p_loss_adjusted,
            "p_gain_adjusted": result.p_gain_adjusted,
            "matched_mean": result.matched_mean,
            "target_gain_factor": args.target_gain_factor,
            "target_loss_factor": args.target_loss_factor,
            "rebalanced_distance": rebalanced.distance if rebalanced else "",
            "rebalanced_distance_exact": rebalanced.distance_exact if rebalanced else "",
            "warnings": ";".join(rebalanced.warnings if rebalanced else result.warnings),
        }
        return tuple(row), [tuple(row.values())]

    return CommandOutput(lambda: {**_jsonable(result), "rebalanced": _jsonable(rebalanced)},
                         human, table)


def _cmd_compare(args: argparse.Namespace) -> CommandOutput:
    config = _engines.SimConfig(
        args.p, args.distance, args.trials, args.max_steps, args.seed, args.workers
    )
    comparison = _engines.compare_methods(config, progress=_progress_printer("compare"))
    sections = (
        ("ruin_probability", "ruin probability:", comparison.ruin_estimates),
        ("expected_time", "expected time to ruin (censored):", comparison.time_estimates),
    )

    def human() -> list[str]:
        lines = [f"p={_fmt(args.p)} distance={args.distance} "
                 f"(DP reference horizon {comparison.dp_horizon})"]
        for _, title, estimates in sections:
            lines += ["", title, f"  {'method':<24} {'value':>14} {'|dev from DP|':>14}  note"]
            lines += (f"  {e.method:<24} {_cell(e.value):>14} {_cell(e.abs_dev_from_dp):>14}"
                      f"  {e.note if e.valid else '[invalid] ' + e.note}" for e in estimates)
        return lines

    return CommandOutput(lambda: _jsonable(comparison), human, lambda: (
        ("section", "method", "value", "valid", "abs_dev_from_dp", "note"),
        ((section, e.method, e.value, e.valid, e.abs_dev_from_dp, e.note)
         for section, _, estimates in sections for e in estimates),
    ), _engines.engine_record())


def _cmd_demo(args: argparse.Namespace) -> CommandOutput:
    states = [dict(zip(("year", "yield_percent", "move", "lattice_position"), row))
              for row in DEMO_STATES]

    def human() -> list[str]:
        lines = [
            "Ten-year treasury yield, summers of 2011-2013, on the halving/doubling lattice:",
            "",
            f"  {'year':<6} {'yield':>6}  {'move':>5}  {'position':>8}",
        ]
        for s in states:
            move = "-" if s["move"] is None else f"{s['move']:+d}"
            lines.append(f"  {s['year']:<6} {s['yield_percent']:>5.1f}%  {move:>5}"
                         f"  {s['lattice_position']:>8}")
        return lines + [
            "",
            "Each year the yield either doubles (+1, a gain step) or halves (-1, a",
            "loss step): 2.8% fell to 1.4%, then recovered to 2.8%.  A loss level of",
            "0.25 from the 2011 start would sit two lattice steps down, at 0.7%.",
        ]

    return CommandOutput(lambda: {"scenario": DEMO_SCENARIO, "states": states}, human,
                         lambda: (tuple(states[0]), [tuple(s.values()) for s in states]))


# ----------------------------------------------------------------------
# output plumbing
# ----------------------------------------------------------------------


def _manifest(args: argparse.Namespace, output: CommandOutput) -> dict:
    parameters = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("handler", "command")
    }
    manifest = {
        "command": args.command,
        "parameters": parameters,
        "tool_version": __version__,
        "seed": getattr(args, "seed", None),
    }
    if output.engine is not None:
        manifest["engine"] = output.engine
    return manifest


def _emit(args: argparse.Namespace, output: CommandOutput) -> None:
    manifest = _manifest(args, output)
    if args.format == "json":
        print(json.dumps({"manifest": manifest, "result": output.result()}))
    elif args.format == "csv":
        import csv  # loaded only for CSV output
        header, rows = output.table()
        writer = csv.writer(sys.stdout, lineterminator="\n")
        # manifest rides along as a comment line so the rows stay parseable
        print(f"# manifest: {json.dumps(manifest)}")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        print(*output.human(), sep="\n")
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


def _jsonable(value):
    """JSON form of an engine result: record fields in declaration order,
    other tuples and lists as lists, non-finite floats as ``None``, and
    dicts (the engines' step maps, JSON-ready) as they are.  The leaf checks
    come first: a series holds thousands of floats."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if hasattr(value, "_fields"):  # a record is a tuple too: before the tuple branch
        return {name: _jsonable(item) for name, item in zip(value._fields, value)}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


if __name__ == "__main__":
    entry_point()
