"""Smoke test: every workload at its tiny size, with tracing off and on.

    python3 perfbench/smoke_test.py
    python3 -m pytest perfbench/smoke_test.py

Checks the result line against BENCHMARK.json (every metric name and unit,
nothing extra), that every answer was correct with an error rate of 0, and
that the benchmark refuses to run in a directory without designforge sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT, bench: Path = HERE):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(workload: str, trace: int) -> None:
    done = run_bench(workload, trace)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1 or result["failed"] != 0:
        raise AssertionError(f"{workload} trace={trace}: {result['attempted']} attempted, "
                             f"{result['failed']} failed, correct={result['correct']}\n"
                             f"{done.stderr}")
    error_line = [line for line in lines if line.startswith("error_rate=")]
    if len(error_line) != 1 or float(error_line[0].split()[0].split("=")[1]) != 0.0:
        raise AssertionError(f"error_rate line: {error_line}")
    expected = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
    if list(got) != [m["name"] for m in expected]:
        missing = {m["name"] for m in expected} - set(got)
        raise AssertionError(f"metric names differ; missing {sorted(missing)}, "
                             f"extra {sorted(set(got) - {m['name'] for m in expected})}")
    for m in expected:
        value, unit = got[m["name"]]
        if unit != m["unit"]:
            raise AssertionError(f"{m['name']}: unit {unit}, expected {m['unit']}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise AssertionError(f"{m['name']}: value {value!r}")
        if not trace and value <= 0:
            raise AssertionError(f"end-to-end metric {m['name']} is {value}")


def test_every_workload():
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            check_result(workload["name"], trace)


def test_refuses_without_sources():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run_bench("search", 0, cwd=bare, bench=bare / HERE.name)
        if done.returncode == 0 or done.stdout.strip():
            raise AssertionError("ran without designforge sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"PASS {name}")
