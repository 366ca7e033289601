#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/repeat.py --seeds 1-10 [--workloads quickstart,studies]
                                [--trace 0|1] [--seconds N] [--write FILE]

Runs one process per (workload, seed), one after another.  The spread is
the distance between the first and third quartile of the values over
their median, with ``statistics.quantiles(values, n=4)``.  ``--write``
stores the per-workload medians, quartiles and the environment (Python,
platform, processor count, git commit of the checkout) as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> "list[int]":
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--write", type=Path, help="write the summary JSON here")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": parse_seeds(args.seeds),
        "workloads": {},
    }
    status = 0
    for workload in args.workloads.split(","):
        values: "dict[str, list[float]]" = {}
        units: "dict[str, str]" = {}
        for seed in summary["seeds"]:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.stderr.write(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
                units[name] = entry["unit"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        rows = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3,
                          "spread": spread, "values": vals}
            bound = bounds.get(name) if args.trace == 0 else None
            flag = "" if bound is None else f" bound {bound} ({spread / bound:.0%} of it)"
            print(f"  {workload} {name}: median {median:.5g} {units[name]} spread {spread:.4f}{flag}")
        summary["workloads"][workload] = rows
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
