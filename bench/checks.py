"""Reference values and output checks for benchmark commands.

References come from the library itself, through a different engine than
the one a command runs (the horizon DP checks the series and Monte Carlo)
or from closed forms computed here.  They are computed once per command
list, before and outside any timed region.

A command *fails* if its exit code is not the expected one or if its
output fails a check.  Printed human-format numbers carry 12 significant
digits, so checks on them get ``HUMAN_SLACK`` on top of their tolerance.
"""
from __future__ import annotations

import csv
import io
import json
import math

from workloads import Command

SERIES_TOL = 1e-10     # exact-mode series vs DP at horizon d + 2N
MASS_TOL = 1e-12       # DP ruin + survival = 1; DP <= classical bound
MEAN_TOL = 1e-12       # transform preserves the per-trial mean
MC_SIGMAS = 5.0        # simulate vs DP reference
HUMAN_SLACK = 2e-12    # rounding of numbers printed with 12 significant digits
COMPARE_HUMAN_SLACK = 1e-8  # compare's human table prints 9 significant digits
SNAP = 1e-9            # distances this close to an integer snap to it


def reference_key(cmd: Command) -> tuple | None:
    """The DP call a command's check needs, or None if it needs none."""
    p = cmd.params
    if cmd.expect_exit != 0:
        return None
    if cmd.kind == "series":
        return (p["p"], p["distance"], p["distance"] + 2 * p.get("max_gains", 200))
    if cmd.kind in ("simulate", "compare"):
        return (p["p"], lattice_distance(p), p.get("horizon") or p["max_steps"])
    return None


def compute_references(commands: list[Command]) -> dict[tuple, float]:
    """Ruin probability within the horizon for every distinct DP key."""
    from ruinlab.oracle import ruin_probability_dp

    refs = {}
    for cmd in commands:
        key = reference_key(cmd)
        if key is not None and key not in refs:
            refs[key] = ruin_probability_dp(*key).ruin_probability_within_horizon
    return refs


def lattice_distance(params: dict) -> int:
    if "distance" in params:
        return params["distance"]
    exact = math.log(params["loss_level"]) / math.log(1.0 + params["loss_factor"])
    return max(1, math.ceil(exact - SNAP))


def classical_bound(p: float, d: int) -> float:
    q = 1.0 - p
    return 1.0 if p <= q else min(1.0, (q / p) ** d)


def check(cmd: Command, exit_code: int, stdout: str, stderr: str,
          refs: dict[tuple, float]) -> str | None:
    """Return None if the run is correct, else a one-line reason."""
    if exit_code != cmd.expect_exit:
        last = stderr.strip().splitlines()[-1:] or [""]
        return f"exit {exit_code}, expected {cmd.expect_exit}: {last[0][:160]}"
    if cmd.expect_exit != 0:
        if cmd.expect_text not in stderr:
            return f"error message does not name {cmd.expect_text!r}"
        return None
    try:
        out = parse(cmd, stdout)
        return CHECKS[cmd.kind](cmd, out, refs)
    except (KeyError, ValueError, IndexError, TypeError, csv.Error) as exc:
        return f"unparseable {cmd.fmt} output: {type(exc).__name__}: {exc}"


def result_payload(cmd: Command, stdout: str) -> str:
    """Output with the manifest removed, for comparing worker twins."""
    lines = stdout.splitlines()
    if cmd.fmt == "json":
        try:
            return json.dumps(json.loads(stdout)["result"], sort_keys=True)
        except (ValueError, KeyError, TypeError):
            return stdout  # unparseable; its own check reports why
    if cmd.fmt == "csv":
        return "\n".join(lines[1:])
    return "\n".join(lines[:-1])


def evaluate(commands: list[Command], outputs: list[list[tuple[int, str, str]]],
             refs: dict) -> dict[int, list[str]]:
    """Failure reasons per slot, from (exit code, stdout, stderr) per execution.

    Besides each command's own check, repeated runs of a slot must print
    the same bytes and worker twins the same result.
    """
    failures: dict[int, list[str]] = {}
    for slot, cmd in enumerate(commands):
        for exit_code, stdout, stderr in outputs[slot]:
            reason = check(cmd, exit_code, stdout, stderr, refs)
            if reason is not None:
                failures.setdefault(slot, []).append(reason)
        if len({stdout for _, stdout, _ in outputs[slot]}) > 1:
            failures.setdefault(slot, []).append("stdout differs between repeated runs")
    twins: dict[int, list[int]] = {}
    for slot, cmd in enumerate(commands):
        if cmd.twin is not None:
            twins.setdefault(cmd.twin, []).append(slot)
    for slots in twins.values():
        payloads = set()
        for slot in slots:
            exit_code, stdout, _ = outputs[slot][0]
            payloads.add(result_payload(commands[slot], stdout) if exit_code == 0 else None)
        if len(payloads) > 1:
            for slot in slots:
                failures.setdefault(slot, []).append("result differs from its --workers twin")
    return failures


def wrong_outputs(commands: list[Command], failures: dict[int, list[str]],
                  outputs: list[list[tuple[int, str, str]]]) -> int:
    """Failed slots where the program answered (exit 0, or accepted an
    illegal input) rather than refusing with an error exit."""
    return sum(1 for slot in failures
               if commands[slot].expect_exit != 0 or outputs[slot][0][0] == 0)


# ----------------------------------------------------------------------
# parsing: every format to the same small dict per command kind
# ----------------------------------------------------------------------


def parse(cmd: Command, stdout: str) -> dict:
    if cmd.fmt == "json":
        return {"json": json.loads(stdout)["result"]}
    if cmd.fmt == "csv":
        lines = stdout.splitlines()
        if not lines[0].startswith("# manifest: "):
            raise ValueError("missing manifest comment line")
        rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
        return {"header": rows[0], "rows": rows[1:]}
    return {"lines": stdout.splitlines()}


def _human_value(lines: list[str], label: str) -> str:
    for line in lines:
        if line.startswith(label):
            return line[len(label):].split()[0]
    raise KeyError(label)


def _csv_column(out: dict, name: str, row: int = 0) -> str:
    return out["rows"][row][out["header"].index(name)]


def _slack(cmd: Command) -> float:
    return HUMAN_SLACK if cmd.fmt == "human" else 0.0


# ----------------------------------------------------------------------
# checks per command kind
# ----------------------------------------------------------------------


def _check_series(cmd: Command, out: dict, refs: dict) -> str | None:
    p = cmd.params
    max_gains = p.get("max_gains", 200)
    if cmd.fmt == "json":
        cumulative = out["json"]["cumulative"]
        truncation = out["json"]["truncation"]
    elif cmd.fmt == "csv":
        cumulative = float(out["rows"][-1][3])
        truncation = int(out["rows"][-1][0])
    else:
        head = out["lines"][1]  # "cumulative through N=<n>: <value>"
        truncation = int(head.split("N=")[1].split(":")[0])
        cumulative = float(head.rsplit(" ", 1)[1])
    if truncation != max_gains:
        return f"series truncated at N={truncation}, expected {max_gains}"
    dp = refs[reference_key(cmd)]
    tol = SERIES_TOL + _slack(cmd)
    if p["mode"] == "exact" and abs(cumulative - dp) > tol:
        return f"exact-mode cumulative {cumulative!r} differs from DP {dp!r}"
    if p["mode"] == "paper" and cumulative < dp - tol:
        return f"paper-mode cumulative {cumulative!r} below exact {dp!r}"
    return None


def _check_exact(cmd: Command, out: dict, refs: dict) -> str | None:
    p = cmd.params
    bound = classical_bound(p["p"], p["distance"]) + MASS_TOL + _slack(cmd)
    distribution = None
    if cmd.fmt == "json":
        ruin = out["json"]["ruin_probability_within_horizon"]
        survival = out["json"]["survival_mass"]
        if p.get("distribution"):
            distribution = {int(t): m for t, m in out["json"]["ruin_time_distribution"].items()}
    elif cmd.fmt == "csv" and p.get("distribution"):
        distribution = {int(t): float(m) for t, m in out["rows"]}
        ruin = math.fsum(distribution.values())
        survival = None
    elif cmd.fmt == "csv":
        ruin = float(_csv_column(out, "ruin_probability_within_horizon"))
        survival = float(_csv_column(out, "survival_mass"))
    else:
        ruin = float(_human_value(out["lines"], "ruin probability within horizon"))
        survival = float(_human_value(out["lines"], "survival mass"))
    if survival is not None and abs(ruin + survival - 1.0) > MASS_TOL + _slack(cmd):
        return f"ruin {ruin!r} + survival {survival!r} != 1"
    if not 0.0 <= ruin <= bound:
        return f"ruin {ruin!r} outside [0, min(1, (q/p)^d)]"
    if distribution is not None:
        d = p["distance"]
        if any(m < 0 for m in distribution.values()):
            return "ruin-time distribution has a negative mass"
        # ruin times share the parity of d; the DP's saturating band top
        # leaks ~1e-76 onto other steps, far below the mass tolerance
        stray = math.fsum(m for t, m in distribution.items()
                          if t < d or t > p["horizon"] or (t - d) % 2)
        if stray > MASS_TOL:
            return f"ruin-time distribution puts {stray!r} on impossible steps"
        if abs(math.fsum(distribution.values()) - ruin) > MASS_TOL:
            return "ruin-time distribution does not sum to the ruin probability"
    return None


def _check_simulate(cmd: Command, out: dict, refs: dict) -> str | None:
    trials = cmd.params["trials"]
    if cmd.fmt == "json":
        ruined = out["json"]["ruined"]
        censored = out["json"]["censored"]
    elif cmd.fmt == "csv":
        ruined = sum(int(count) for _, count in out["rows"])
        censored = trials - ruined
    else:
        ruined = int(_human_value(out["lines"], "ruined"))
        censored = int(_human_value(out["lines"], "censored"))
    if ruined + censored != trials:
        return f"ruined {ruined} + censored {censored} != trials {trials}"
    return _within_sigmas(ruined / trials, refs[reference_key(cmd)], trials)


def _within_sigmas(frequency: float, reference: float, trials: int) -> str | None:
    clamped = min(max(reference, 0.0), 1.0)
    sigma = math.sqrt(clamped * (1.0 - clamped) / trials)
    if abs(frequency - reference) > MC_SIGMAS * sigma + MASS_TOL:
        return (f"Monte Carlo frequency {frequency!r} more than {MC_SIGMAS:g} sigma "
                f"from DP {reference!r}")
    return None


def _check_compare(cmd: Command, out: dict, refs: dict) -> str | None:
    rows = _compare_rows(cmd, out)
    dp = refs[reference_key(cmd)]
    slack = COMPARE_HUMAN_SLACK if cmd.fmt == "human" else 0.0
    if abs(rows["dp"][0] - dp) > MASS_TOL + slack:
        return f"compare's DP row {rows['dp'][0]!r} differs from DP {dp!r}"
    reason = _within_sigmas(rows["monte_carlo"][0], dp, cmd.params["trials"])
    if reason is not None:
        return reason
    if "approx_invalid" in cmd.tags and rows["approx_arith_geometric"][1]:
        return "approx_arith_geometric not flagged invalid with q*p*d >= 1"
    return None


def _compare_rows(cmd: Command, out: dict) -> dict[str, tuple[float | None, bool]]:
    """Ruin-probability rows: method -> (value, valid)."""
    rows = {}
    if cmd.fmt == "json":
        for e in out["json"]["ruin_estimates"]:
            rows[e["method"]] = (e["value"], e["valid"])
    elif cmd.fmt == "csv":
        for section, method, value, valid, *_ in out["rows"]:
            if section == "ruin_probability":
                rows[method] = (float(value) if value else None, valid == "True")
    else:
        lines = out["lines"]
        start = lines.index("ruin probability:") + 2
        for line in lines[start:]:
            if not line.strip():
                break
            method, value = line.split()[:2]
            rows[method] = (None if value == "-" else float(value), "[invalid]" not in line)
    return rows


def _check_calibrate(cmd: Command, out: dict, refs: dict) -> str | None:
    if cmd.fmt == "json":
        distance = out["json"]["distance"]
    elif cmd.fmt == "csv":
        distance = int(_csv_column(out, "distance"))
    else:
        distance = int(_human_value(out["lines"], "distance (lattice)"))
    expected = lattice_distance(cmd.params)
    if distance != expected:
        return f"calibrated distance {distance}, expected {expected}"
    return None


def _check_transform(cmd: Command, out: dict, refs: dict) -> str | None:
    p = cmd.params
    rebalanced = None
    if cmd.fmt == "json":
        p_gain = out["json"]["p_gain_adjusted"]
        if out["json"]["rebalanced"]:
            rebalanced = out["json"]["rebalanced"]["distance"]
    elif cmd.fmt == "csv":
        p_gain = float(_csv_column(out, "p_gain_adjusted"))
        text = _csv_column(out, "rebalanced_distance")
        rebalanced = int(text) if text else None
    else:
        p_gain = float(_human_value(out["lines"], "p_gain_adjusted"))
        for line in out["lines"]:
            if line.startswith("rebalanced ruin inputs"):
                rebalanced = int(line.split("distance=")[1].split()[0])
    mean = p["p"] * p["gain_factor"] + (1.0 - p["p"]) * p["loss_factor"]
    matched = p_gain * p["target_gain_factor"] + (1.0 - p_gain) * p["target_loss_factor"]
    if abs(matched - mean) > MEAN_TOL + _slack(cmd):
        return f"transform changed the mean: {matched!r} vs {mean!r}"
    if "loss_level" in p:
        expected = lattice_distance({"loss_level": p["loss_level"],
                                     "loss_factor": p["target_loss_factor"]})
        if rebalanced != expected:
            return f"rebalanced distance {rebalanced}, expected {expected}"
    return None


def _check_demo(cmd: Command, out: dict, refs: dict) -> str | None:
    if cmd.fmt == "json":
        positions = [s["lattice_position"] for s in out["json"]["states"]]
    elif cmd.fmt == "csv":
        positions = [int(_csv_column(out, "lattice_position", i)) for i in range(len(out["rows"]))]
    else:
        positions = [int(line.split()[-1]) for line in out["lines"] if line.strip()[:4].isdigit()]
    if positions != [0, -1, 0]:
        return f"demo positions {positions}, expected [0, -1, 0]"
    return None


CHECKS = {
    "series": _check_series,
    "exact": _check_exact,
    "simulate": _check_simulate,
    "compare": _check_compare,
    "calibrate": _check_calibrate,
    "transform": _check_transform,
    "demo": _check_demo,
}
