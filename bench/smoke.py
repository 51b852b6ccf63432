"""Smoke test of the benchmark: every workload on tiny seeded inputs.

    python3 bench/smoke.py

Run from the root of the checkout.  For each workload `bench/run.py` knows
(those of BENCHMARK.json and search-random) it runs it with --tiny, plain and
traced, and checks that every metric is printed by name with its unit, that
no job failed (fail_ratio 0) and that the traced run wrote its spans.  It also checks that the benchmark refuses to run
(nonzero exit, no result line) in a directory without the ringline sources.
Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

ROOT = Path.cwd()
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def fail(message: str) -> None:
    print(f"smoke: FAIL {message}", file=sys.stderr)
    sys.exit(1)


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_run(workload: str, trace: int) -> None:
    proc = run(workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    *text, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} --trace {trace}: {result['failed']} of {result['attempted']} jobs failed")
    wanted = {m["name"]: m["unit"] for m in BENCH["end_to_end" if trace == 0 else "per_layer"]}
    if set(result["metrics"]) != set(wanted):
        fail(f"{workload} --trace {trace}: metrics differ: {sorted(set(result['metrics']) ^ set(wanted))}")
    printed = {line.split()[0]: line.split()[1:] for line in text if line.startswith("  ") and line.split()}
    for name, unit in wanted.items():
        value = result["metrics"][name]
        if value["unit"] != unit or not isinstance(value["value"], (int, float)):
            fail(f"{workload}: metric {name} is {value}, unit {unit} expected")
        if len(printed.get(name, [])) < 2 or printed[name][1] != unit:
            fail(f"{workload}: {name} not printed with its unit {unit}")
    if trace == 0:
        ratio = printed.get("fail_ratio")
        if not ratio or float(ratio[0]) != 0 or ratio[1] != "ratio":
            fail(f"{workload}: fail_ratio line {ratio}")
    else:
        spans = json.loads((ROOT / ".bench_work" / f"spans-{workload}-seed{SEED}.json").read_text())
        count = len(spans["spans"]) + sum(len(job["spans"]) for job in spans["cli_jobs"])
        if count == 0 or spans["fields"][:2] != ["id", "name"]:
            fail(f"{workload}: traced run wrote no spans")
    print(f"smoke: ok {workload} --trace {trace} ({result['attempted']} jobs)")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(BENCH["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("the benchmark ran without the ringline sources")
    print("smoke: ok refuses to run without the sources")


def main() -> int:
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            check_run(workload, trace)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
