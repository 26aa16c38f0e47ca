"""Traced run: per-layer metrics from an in-process replay of the workload.

Each command's argv goes to ``ruinlab.cli.main`` twice in this process:
once as is, and once with spans around the calls into each module's
public functions.  The spans are recorded from the benchmark's side, by
swapping the module attributes the callers look up for timing wrappers;
the program itself is not changed.  A span has a name, start, end, parent
and the trace id of its command; spans stay in memory and are written to
the run record at the end.  Self time is a span minus its direct children.

The ROADMAP baseline scenarios run after the replay as fixed probes.
"""
from __future__ import annotations

import contextlib
import functools
import io
import os
import statistics
import sys
import time
import traceback
from collections import defaultdict

import checks
from workloads import Command

NPROC_NOTE = f"{os.cpu_count()} CPUs"  # stated next to every parallel speedup

# name: (unit, better, workloads it is read on, end-to-end metrics it should move)
LAYER_METRICS = {
    "series.counts.s": ("s", "lower", "exact", "wall_s, cmd_tail_s"),
    "series.count_bits": ("count", "lower", "exact", "wall_s, cmd_tail_s"),
    "series.terms": ("count", "lower", "exact", "wall_s, cmd_tail_s"),
    "series.ruin_series.s": ("s", "lower", "exact", "wall_s"),
    "series.term_prob.s": ("s", "lower", "exact", "wall_s"),
    "oracle.dp.s": ("s", "lower", "exact; session", "wall_s, cmd_tail_s, peak_rss_mb, cmd_p50_s"),
    "oracle.dp.steps": ("count", "lower", "exact; session", "wall_s, cmd_tail_s"),
    "oracle.dp.steps_per_s": ("1/s", "higher", "exact; session", "wall_s, cmd_tail_s"),
    "oracle.dp.distribution_entries": ("count", "lower", "exact", "peak_rss_mb, wall_s"),
    "montecarlo.simulate.s": ("s", "lower", "mc_survive", "wall_s, cmd_p50_s, peak_rss_mb"),
    "montecarlo.trial_steps": ("count", "lower", "mc_survive", "wall_s, cmd_p50_s"),
    "montecarlo.trial_steps_per_s": ("1/s", "higher", "mc_survive", "wall_s, cmd_p50_s"),
    "montecarlo.censored_frac": ("ratio", "lower", "mc_survive", "wall_s"),
    "montecarlo.parallel_speedup": ("x", "higher", "mc_survive; session", "wall_s"),
    "montecarlo.compare.s": ("s", "lower", "session", "wall_s"),
    "cli.interpreter_s": ("s", "lower", "all; mostly session", "setup_s, cmd_p50_s"),
    "cli.import_s": ("s", "lower", "all; mostly session", "setup_s, cmd_p50_s"),
    "cli.import_numpy_s": ("s", "lower", "all; mostly session", "setup_s, cmd_p50_s"),
    "cli.main.s": ("s", "lower", "session; exact", "cmd_p50_s, wall_s"),
    "cli.overhead_s": ("s", "lower", "session; exact", "cmd_p50_s, wall_s"),
    "cli.stdout_bytes": ("bytes", "lower", "exact; session", "cmd_p50_s, wall_s"),
    "cli.failed_calls": ("count", "lower", "all", "error_rate"),
    "model.calibrate.calls": ("count", "lower", "session", "none expected (guard)"),
    "model.calibrate.s": ("s", "lower", "session", "none expected (guard)"),
    "transform.rebalance.calls": ("count", "lower", "session", "none expected (guard)"),
    "transform.rebalance.s": ("s", "lower", "session", "none expected (guard)"),
    "trace.overhead_frac": ("ratio", "lower", "all", "none (tracing cost)"),
}

# ROADMAP baseline table, measured in every traced run.  Sizes that would
# not fit the traced run are reduced and say so in the name and note.
PROBE_METRICS = {
    "probe.dp_p0.55_d3_h1e6.s": ("s", "lower", "ROADMAP size"),
    "probe.dp_p0.5_d2_h1e5.s": ("s", "lower", "ROADMAP size"),
    "probe.series_exact_p0.5_d3_n5000.s": ("s", "lower", "ROADMAP size"),
    "probe.series_paper_p0.5_d3_n2000.s": ("s", "lower", "ROADMAP uses N=5000 (~42 s); N=2000 here"),
    "probe.simulate_p0.6_d3_t2e5_h1e5_w1.s": ("s", "lower", "ROADMAP uses 1e6 trials; 2e5 here"),
    "probe.simulate_p0.6_d3_t2e5_h1e5_w2.s": ("s", "lower", "ROADMAP uses 1e6 trials; 2e5 here"),
    "probe.simulate_p0.6_d3_t2e5_h1e5.parallel_speedup": ("x", "higher", f"w1 / w2 on {NPROC_NOTE}"),
    "probe.cli_calibrate.s": ("s", "lower", "median of 3 CLI starts"),
    "probe.cli_compare_defaults.s": ("s", "lower", "compare --p 0.6 --distance 3 --seed 42, 1e5 trials"),
}


class Tracer:
    """Spans in memory; ``trace_id`` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.trace_id: int | str | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = {"id": len(self.spans), "trace": self.trace_id, "name": name,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(), "end": None, "attrs": {}}
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if attrs is not None:
                span["attrs"] = attrs(args, result)
            return result

        return traced


def _series_attrs(args, report) -> dict:
    return {"terms": len(report.terms),
            "count_bits": sum(t.path_count.bit_length() for t in report.terms)}


def _dp_attrs(args, result) -> dict:
    return {"steps": result.horizon,
            "distribution_entries": len(result.ruin_time_distribution or {})}


def _simulate_attrs(args, result) -> dict:
    config = args[0]
    ruin_steps = sum(t * c for t, c in result.time_histogram.items())
    return {"trials": config.trials, "censored": result.censored, "workers": config.workers,
            "trial_steps": ruin_steps + result.censored * config.max_steps}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Swap each public engine function for a traced wrapper in every
    module that calls it; restore the originals on exit."""
    from ruinlab import cli, model, montecarlo, oracle, series, transform

    targets = [
        ("series.ruin_series", series.ruin_series, _series_attrs, (cli, montecarlo)),
        ("series.exact_coefficient", series.exact_coefficient, None, (series,)),
        ("series.paper_coefficient", series.paper_coefficient, None, (series,)),
        ("oracle.ruin_probability_dp", oracle.ruin_probability_dp, _dp_attrs, (cli, montecarlo)),
        ("montecarlo.simulate", montecarlo.simulate, _simulate_attrs, (cli, montecarlo)),
        ("montecarlo.compare_methods", montecarlo.compare_methods, None, (cli,)),
        ("model.calibrate", model.calibrate, None, (cli, montecarlo)),
        ("transform.rebalance", transform.rebalance, None, (cli,)),
    ]
    saved = []
    for name, fn, attrs, modules in targets:
        wrapper = tracer.wrap(name, fn, attrs)
        attr = fn.__name__
        for module in modules:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def call_main(argv: tuple[str, ...]) -> tuple[int, str, str]:
    """``ruinlab.cli.main`` with stdout and stderr captured; an uncaught
    exception counts as exit 1, as it would in a fresh interpreter."""
    from ruinlab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def replay(commands: list[Command], tracer: Tracer) -> tuple[list[list[tuple]], float, float]:
    """Run each command untraced and traced, alternating which goes first so
    warm caches favour neither; returns the traced outputs and the summed
    untraced and traced ``main`` times."""
    outputs, untraced_s, traced_s = [], 0.0, 0.0
    for slot, cmd in enumerate(commands):
        for traced in ((False, True) if slot % 2 else (True, False)):
            if not traced:
                begin = time.perf_counter()
                call_main(cmd.argv)
                untraced_s += time.perf_counter() - begin
                continue
            tracer.trace_id = slot
            with instrument(tracer), tracer.span("cli.main") as span:
                code, out, err = call_main(cmd.argv)
            span["attrs"] = {"stdout_bytes": len(out.encode())}
            traced_s += span["end"] - span["start"]
            outputs.append([(code, out, err)])
    return outputs, untraced_s, traced_s


def _import_times(launch) -> dict[str, float]:
    """Median start-up costs over 5 fresh interpreters each."""
    interpreter = [launch([sys.executable, "-c", "pass"]).wall_s for _ in range(5)]
    ruinlab, numpy = [], []
    for _ in range(5):
        run = launch([sys.executable, "-X", "importtime", "-c", "import ruinlab.cli"])
        total_us = numpy_us = 0
        for line in run.stderr.decode().splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue  # not an import line, or the column header
            cumulative, name = fields[1], fields[2]
            if name.strip() == "numpy" and not numpy_us:
                numpy_us = int(cumulative)
            if name.startswith(" ruinlab"):  # top level: no nesting indent
                total_us += int(cumulative)
        ruinlab.append(total_us / 1e6)
        numpy.append(numpy_us / 1e6)
    return {"cli.interpreter_s": statistics.median(interpreter),
            "cli.import_s": statistics.median(ruinlab),
            "cli.import_numpy_s": statistics.median(numpy)}


def run_probes(tracer: Tracer, launch, cli_argv, toy: bool) -> dict[str, float]:
    from ruinlab.montecarlo import SimConfig, simulate
    from ruinlab.oracle import ruin_probability_dp
    from ruinlab.series import ruin_series

    scale = 100 if toy else 1
    tracer.trace_id = "probe"

    def timed(name, fn, *args):
        with tracer.span(name) as span:
            fn(*args)
        return span["end"] - span["start"]

    def sim(workers):
        return SimConfig.for_lattice(0.6, 3, 200_000 // scale, 100_000 // scale, 42, workers)

    values = {
        "probe.dp_p0.55_d3_h1e6.s": timed("probe.dp", ruin_probability_dp, 0.55, 3, 10**6 // scale),
        "probe.dp_p0.5_d2_h1e5.s": timed("probe.dp", ruin_probability_dp, 0.5, 2, 10**5 // scale),
        "probe.series_exact_p0.5_d3_n5000.s": timed("probe.series", ruin_series, 0.5, 3,
                                                    5000 // scale, "exact"),
        "probe.series_paper_p0.5_d3_n2000.s": timed("probe.series", ruin_series, 0.5, 3,
                                                    2000 // scale, "paper"),
        "probe.simulate_p0.6_d3_t2e5_h1e5_w1.s": timed("probe.simulate", simulate, sim(1)),
        "probe.simulate_p0.6_d3_t2e5_h1e5_w2.s": timed("probe.simulate", simulate, sim(2)),
    }
    values["probe.simulate_p0.6_d3_t2e5_h1e5.parallel_speedup"] = (
        values["probe.simulate_p0.6_d3_t2e5_h1e5_w1.s"] / values["probe.simulate_p0.6_d3_t2e5_h1e5_w2.s"])
    calibrate = cli_argv(("calibrate", "--loss-level", "0.25"))
    values["probe.cli_calibrate.s"] = statistics.median(launch(calibrate).wall_s for _ in range(3))
    trials = "1000" if toy else "100000"
    values["probe.cli_compare_defaults.s"] = launch(cli_argv(
        ("compare", "--p", "0.6", "--distance", "3", "--seed", "42", "--trials", trials))).wall_s
    return values


def layer_metrics(spans: list[dict], commands: list[Command], untraced_s: float,
                  traced_s: float, failed_calls: int) -> dict[str, float]:
    replayed = [s for s in spans if s["trace"] != "probe"]
    by_name: dict[str, list[dict]] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    for s in replayed:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name[name])

    def attr_sum(name: str, key: str) -> int:
        return sum(s["attrs"].get(key, 0) for s in by_name[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0  # 0 where the workload does no such work

    counts_s = total("series.exact_coefficient") + total("series.paper_coefficient")
    dp_s, sim_s = total("oracle.ruin_probability_dp"), total("montecarlo.simulate")
    trial_steps = attr_sum("montecarlo.simulate", "trial_steps")
    by_workers = defaultdict(float)
    for s in by_name["montecarlo.simulate"]:
        cmd = commands[s["trace"]]
        if cmd.twin is not None and cmd.kind == "simulate":
            by_workers[s["attrs"].get("workers")] += s["end"] - s["start"]
    return {
        "series.counts.s": counts_s,
        "series.count_bits": attr_sum("series.ruin_series", "count_bits"),
        "series.terms": attr_sum("series.ruin_series", "terms"),
        "series.ruin_series.s": total("series.ruin_series"),
        "series.term_prob.s": total("series.ruin_series") - counts_s,
        "oracle.dp.s": dp_s,
        "oracle.dp.steps": attr_sum("oracle.ruin_probability_dp", "steps"),
        "oracle.dp.steps_per_s": ratio(attr_sum("oracle.ruin_probability_dp", "steps"), dp_s),
        "oracle.dp.distribution_entries": attr_sum("oracle.ruin_probability_dp",
                                                   "distribution_entries"),
        "montecarlo.simulate.s": sim_s,
        "montecarlo.trial_steps": trial_steps,
        "montecarlo.trial_steps_per_s": ratio(trial_steps, sim_s),
        "montecarlo.censored_frac": ratio(attr_sum("montecarlo.simulate", "censored"),
                                          attr_sum("montecarlo.simulate", "trials")),
        "montecarlo.parallel_speedup": ratio(by_workers[1], by_workers[2]),
        "montecarlo.compare.s": total("montecarlo.compare_methods"),
        "cli.main.s": total("cli.main"),
        "cli.overhead_s": sum(s["end"] - s["start"] - child_time[s["id"]]
                              for s in by_name["cli.main"]),
        "cli.stdout_bytes": attr_sum("cli.main", "stdout_bytes"),
        "cli.failed_calls": failed_calls,
        "model.calibrate.calls": len(by_name["model.calibrate"]),
        "model.calibrate.s": total("model.calibrate"),
        "transform.rebalance.calls": len(by_name["transform.rebalance"]),
        "transform.rebalance.s": total("transform.rebalance"),
        "trace.overhead_frac": ratio(traced_s - untraced_s, untraced_s),
    }


def traced_run(commands: list[Command], refs: dict, launch, cli_argv,
               toy: bool = False) -> tuple[dict, dict]:
    tracer = Tracer()
    values = _import_times(launch)
    outputs, untraced_s, traced_s = replay(commands, tracer)
    failures = checks.evaluate(commands, outputs, refs)
    values.update(layer_metrics(tracer.spans, commands, untraced_s, traced_s, len(failures)))
    values.update(run_probes(tracer, launch, cli_argv, toy))
    units = {name: spec[0] for name, spec in {**LAYER_METRICS, **PROBE_METRICS}.items()}
    result = {
        "correct": checks.wrong_outputs(commands, failures, outputs) == 0,
        "attempted": len(commands),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "metric_map": [
            {"metric": name, "value": values[name], "unit": unit, "better": better,
             "workload": workloads, "moves": moves}
            for name, (unit, better, workloads, moves) in LAYER_METRICS.items()
        ] + [
            {"metric": name, "value": values[name], "unit": unit, "better": better, "note": note}
            for name, (unit, better, note) in PROBE_METRICS.items()
        ],
        "speedups_measured_on": NPROC_NOTE,
        "untraced_main_s": untraced_s,
        "failures": {str(slot): reasons for slot, reasons in failures.items()},
        "commands": [["ruinlab", *cmd.argv] for cmd in commands],
        "spans": tracer.spans,
    }
    return result, record
