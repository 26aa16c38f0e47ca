"""Self-test of the benchmark at toy size (about a minute).

    python3 bench/selftest.py

Checks that every workload prints every metric of ``BENCHMARK.json`` by
name and unit in both modes, that a corrupted reference value raises
``error_rate``, and that the benchmark refuses to run, printing no result,
in a directory without the program's sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import checks

SEED = 1


def expect(condition: bool, message: str, problems: list[str]) -> None:
    print(f"  {'ok  ' if condition else 'FAIL'} {message}")
    if not condition:
        problems.append(message)


def check_metrics(result: dict, spec: list[dict], label: str, problems: list[str]) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result has exactly correct/attempted/failed/metrics", problems)
    wanted = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == wanted, f"{label}: {len(wanted)} metrics with the declared units", problems)
    for name, metric in result["metrics"].items():
        print(f"       {name:<50} {metric['value']:>14.6g} {metric['unit']}")


def corrupted_error_rate(workload: str) -> tuple[float, int]:
    """error_rate and failed count with one reference value made wrong."""
    compute = checks.compute_references

    def corrupt(commands):
        refs = compute(commands)
        key = next(iter(refs))
        refs[key] = refs[key] - 0.25 if refs[key] > 0.5 else refs[key] + 0.25
        return refs

    checks.compute_references = corrupt
    try:
        result = run.run(workload, SEED, 1, False, toy=True)
    finally:
        checks.compute_references = compute
    return result["metrics"]["error_rate"]["value"], result["failed"]


def bare_directory_refuses(problems: list[str]) -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "session", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without sources: exit {proc.returncode}, no result printed", problems)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            print(f"{workload}, trace {int(trace)}:")
            check_metrics(run.run(workload, SEED, 1, trace, toy=True), spec[key],
                          f"{workload} trace {int(trace)}", problems)
    print("corrupted reference:")
    clean = run.run("session", SEED, 1, False, toy=True)
    rate, failed = corrupted_error_rate("session")
    expect(failed > clean["failed"] and rate > clean["metrics"]["error_rate"]["value"],
           f"error_rate {clean['metrics']['error_rate']['value']:.4f} -> {rate:.4f}, "
           f"failed {clean['failed']} -> {failed}", problems)
    print("bare directory:")
    bare_directory_refuses(problems)
    print("self-test", "passed" if not problems else f"FAILED: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
