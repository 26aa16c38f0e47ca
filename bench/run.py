"""End-to-end benchmark of the ruinlab command line.

    python3 bench/run.py --workload exact --seed 1 --seconds 30 --trace 0

A closed loop with one client: the seeded command list of the workload
(see ``workloads.py``) runs in order, each command in a fresh interpreter
through ``ruinlab_cli.py``, the next starting only when the previous one
has exited.  Passes over the list repeat while another pass still fits in
``--seconds``.  Outputs are checked after the timed loop (``checks.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays the same
commands in-process with spans around each module's public functions and
prints the per-layer metrics instead (``tracing.py``).  Either way the last
line of stdout is one JSON object; a run record with every command's argv,
exit code, times and stdout sha256 goes to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
LAUNCHER = BENCH_DIR / "ruinlab_cli.py"
OUT_DIR = BENCH_DIR / "out"

# Cold starts of ``import ruinlab.cli`` timed per run for setup_s; the
# median is reported.
SETUP_STARTS = 9
SETUP_ARGV = (sys.executable, "-c", "import ruinlab.cli")
TAIL_BEYOND = 10  # cmd_tail_s: highest percentile with this many commands beyond it

sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(SRC))  # references and the traced replay import ruinlab
import checks  # noqa: E402
from workloads import WORKLOADS, Command  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


@dataclass(frozen=True)
class Execution:
    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RUINLAB_FORMAT", None)  # every command passes --format itself
    env["PYTHONPATH"] = str(SRC)
    return env


def execute(argv: list[str], env: dict[str, str]) -> Execution:
    """Run one process to completion; wall time covers spawn to reap."""
    OUT_DIR.mkdir(exist_ok=True)
    out_path, err_path = OUT_DIR / "stdout.tmp", OUT_DIR / "stderr.tmp"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Execution(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                     out_path.read_bytes(), err_path.read_bytes())


def cli_argv(args: tuple[str, ...]) -> list[str]:
    return [sys.executable, str(LAUNCHER), *args]


def setup_start(env: dict[str, str]) -> float:
    run = execute(list(SETUP_ARGV), env)
    if run.exit_code != 0:
        raise RuntimeError(f"import ruinlab.cli failed: {run.stderr.decode()[-400:]}")
    return run.wall_s


def closed_loop(commands: list[Command], seconds: float, env: dict[str, str]
                ) -> tuple[list[list[Execution]], list[float], list[float]]:
    """Repeat passes over the list while one more pass fits in ``seconds``.

    Returns the executions per slot, the wall time of each pass (the sum of
    its commands' wall times) and the setup_s samples.  The cold starts for
    setup_s are spread over the first pass, between commands, so they see
    the same machine state as the commands do.
    """
    setup_start(env)  # warm-up: writes the bytecode caches
    setup_times: list[float] = []
    every = max(1, len(commands) // SETUP_STARTS)
    runs: list[list[Execution]] = [[] for _ in commands]
    pass_walls: list[float] = []
    start = time.perf_counter()
    while not pass_walls or time.perf_counter() - start + statistics.median(pass_walls) <= seconds:
        wall = 0.0
        for slot, cmd in enumerate(commands):
            if not pass_walls and slot % every == 0 and len(setup_times) < SETUP_STARTS:
                setup_times.append(setup_start(env))
            run = execute(cli_argv(cmd.argv), env)
            runs[slot].append(run)
            wall += run.wall_s
        pass_walls.append(wall)
    while len(setup_times) < SETUP_STARTS:  # lists shorter than SETUP_STARTS
        setup_times.append(setup_start(env))
    return runs, pass_walls, setup_times


def error_rate(failed_slots: int, slots: int) -> float:
    """Share of failed commands by the rule of succession, (f + 1) / (n + 2).

    Counted over the distinct commands of the list, so the value does not
    depend on how many passes fit in the run; never 0, so a relative bound
    on it stays defined.  No failure among n commands reads 1 / (n + 2).
    """
    return (failed_slots + 1) / (slots + 2)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def machine_info(seed: int, workload: str) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "loop": "closed, one client, each command a fresh interpreter",
    }


def untraced_run(commands: list[Command], refs: dict, seconds: float) -> tuple[dict, dict]:
    runs, pass_walls, setup_times = closed_loop(commands, seconds, child_env())
    outputs = [[(r.exit_code, r.stdout.decode(), r.stderr.decode()) for r in slot_runs]
               for slot_runs in runs]
    failures = checks.evaluate(commands, outputs, refs)
    slot_walls = [statistics.median(r.wall_s for r in slot_runs) for slot_runs in runs]
    tail_value, tail_pct = tail(slot_walls)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(pass_walls),
        "cmd_p50_s": statistics.median(slot_walls),
        "cmd_tail_s": tail_value,
        "peak_rss_mb": max(r.rss_mb for slot_runs in runs for r in slot_runs),
        "error_rate": error_rate(len(failures), len(commands)),
    }
    record = {
        "setup_s_samples": setup_times,
        "pass_walls_s": pass_walls,
        "cmd_tail": {"percentile": tail_pct, "commands": len(commands),
                     "note": f"per-command median over {len(pass_walls)} pass(es)"},
        "error_rate": {"failed_commands": len(failures), "commands": len(commands),
                       "rule": "(failed + 1) / (commands + 2)"},
        "commands": [
            {
                "argv": ["ruinlab", *cmd.argv],
                "expect_exit": cmd.expect_exit,
                "tags": list(cmd.tags),
                "runs": [{"wall_s": r.wall_s, "rss_mb": r.rss_mb, "exit": r.exit_code,
                          "stdout_sha256": hashlib.sha256(r.stdout).hexdigest(),
                          "stdout_bytes": len(r.stdout)} for r in runs[slot]],
                "failures": failures.get(slot, []),
            }
            for slot, cmd in enumerate(commands)
        ],
    }
    summary = {
        "correct": checks.wrong_outputs(commands, failures, outputs) == 0,
        "attempted": sum(len(r) for r in runs),
        "failed": sum(1 for slot in failures for _ in runs[slot]),
    }
    return {**summary, "metrics": _with_units(metrics, END_TO_END_UNITS)}, record


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """Run one workload and return the result object (also writes the record)."""
    if not (SRC / "ruinlab" / "cli.py").is_file():
        raise FileNotFoundError(f"no ruinlab sources under {SRC}")
    commands = WORKLOADS[workload](seed, toy=toy)
    refs = checks.compute_references(commands)
    info = machine_info(seed, workload)
    if trace:
        import tracing

        env = child_env()
        result, record = tracing.traced_run(commands, refs, lambda argv: execute(argv, env),
                                            cli_argv, toy=toy)
    else:
        result, record = untraced_run(commands, refs, seconds)
    OUT_DIR.mkdir(exist_ok=True)
    suffix = "-toy" if toy else ""
    path = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}{suffix}.json"
    path.write_text(json.dumps({"machine": info, "result": result, **record}, indent=1))
    print(f"run record: {path.relative_to(ROOT)}", file=sys.stderr)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops and reaps the command it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, RuntimeError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name:<44} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
