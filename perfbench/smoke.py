#!/usr/bin/env python3
"""Smoke check of the benchmark at toy sizes: output schema and zero errors, never times.

Run from anywhere: ``python3 perfbench/smoke.py``.  Every workload runs once
untraced and once traced at toy sizes; the last stdout line must be the
result object with every metric BENCHMARK.json names, in its unit, and no
failed operation.  It also checks that the benchmark refuses to run, without
a result line, in a directory that holds only BENCHMARK.json and the
benchmark itself.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, *args: str) -> "tuple[int, str, str]":
    proc = subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout, proc.stderr


def result_problems(stdout: str, expected_units: "dict[str, str]") -> "list[str]":
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["last stdout line is not a JSON object"]
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys are {sorted(result) if isinstance(result, dict) else result!r}"]
    problems = []
    if result["correct"] is not True:
        problems.append("correct is not true")
    attempted, failed = result["attempted"], result["failed"]
    if type(attempted) is not int or attempted < 1 or type(failed) is not int:
        problems.append(f"attempted={attempted!r} failed={failed!r}")
    elif failed != 0:
        problems.append(f"error rate {failed}/{attempted}")
    metrics = result["metrics"]
    if set(metrics) != set(expected_units):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected_units))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        if name in expected_units and entry.get("unit") != expected_units[name]:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {expected_units[name]!r}")
    return problems


def bare_directory_problems() -> "list[str]":
    bare = ROOT / ".perfbench_out" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        code, stdout, _ = run(bare, "--workload", "quickstart", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if code == 0:
        problems.append("exit code 0 without blokit sources")
    if '"metrics"' in stdout:
        problems.append("printed a result without blokit sources")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in spec[section]}
            code, stdout, stderr = run(ROOT, "--workload", workload["name"], "--seed", "1",
                                       "--seconds", "1", "--trace", str(trace), "--scale", "toy")
            problems = result_problems(stdout, units)
            if code != 0:
                problems.append(f"exit code {code}: {stderr.strip()[-500:]}")
            label = f"{workload['name']} --trace {trace}"
            print(f"{'FAIL' if problems else 'ok  '} {label}" + "".join(f"\n     {p}" for p in problems))
            failures += bool(problems)
    problems = bare_directory_problems()
    print(f"{'FAIL' if problems else 'ok  '} bare directory" + "".join(f"\n     {p}" for p in problems))
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
