#!/usr/bin/env python3
"""blokit benchmark: one workload per process, closed loop, one client.

Usage, from the root of a checkout (no install needed; blokit is imported
from ``src/``)::

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 15 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed / attempted`` is the error rate: an
operation fails when it raises or its output does not check out.

Workloads (see workloads.py):

- ``quickstart``: the README quick start through ``blokit.cli.run``, at 1795
  bits and b=5: gen, enroll, attack preimage --random --out, match, attack
  verify.  Parser set-up dominates; the kernels hardly show.
- ``large-feature``: write/read ``.bits``, transform, ``.blo`` round trip,
  forge, re-transform and match on a 2^18-bit feature: decode, transform
  and forge kernels dominate.
- ``store-fill``: 1000 users enrolled into a fresh TemplateStore over 4
  devices, 250 re-enrolled, every user authenticated with the genuine
  feature and with a forgery, then list_records: the store dominates.
- ``studies``: ``scripts/reproduce_findings.py --full-census`` in process:
  the analysis studies dominate.

End-to-end metrics (``--trace 0``), the same names on every workload:

============  ===============  ================  ===============  ==========
metric        quickstart       large-feature     store-fill       studies
============  ===============  ================  ===============  ==========
op_ms_p50     one cli.run      one pipeline      one              one full
op_ms_p99     call             pass              authenticate     run
work_per_s    victims (five    feature Mbit      enrollments      full runs
              calls)
============  ===============  ================  ===============  ==========

``setup_s`` is the median of several set-ups (fresh blokit import, input
generation, fresh work directory); ``peak_rss_mb`` is the process's
resident high-water mark, so each workload's own.  ``work_per_s`` is a
round's work over the median time that work took.  ``op_ms_p99`` is the
nearest-rank 99th percentile; where a run holds fewer than a thousand
operations (large-feature, studies) it is their maximum.

Times are the process's CPU time, scaled to a reference host speed (see
hostspeed.py): each timed call is divided by the host's slowness probed
just before and after it.  The summary line before the JSON gives the
sample counts, the median slowness, the unscaled figures and the median
wall-clock time of a round.

Per-layer metrics (``--trace 1``): the run alternates untraced and traced
rounds; ``trace.overhead_pct`` compares their median durations.  Spans from
the traced rounds give, per traced round, each module's self time and call
count and the named function metrics; ``*.ms_per_mbit`` are inclusive times
over the bits carried.  The run then passes the large-feature pipeline once
through each size rung and fits ``*.growth_exp``, the exponent of time
against input size.  Spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads
from hostspeed import CLOCK, HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUPS = 7

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p99": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{m}.self_ms": "ms" for m in tracing.MODULES},
    **{f"{m}.calls": "count" for m in tracing.MODULES},
    "cli.build_parser.self_ms": "ms",
    "cli.run.self_ms": "ms",
    "cli.run.calls": "count",
    "bits.decode_text.ms_per_mbit": "ms/Mbit",
    "bits.decode_fbin.ms_per_mbit": "ms/Mbit",
    "bits.encode.ms_per_mbit": "ms/Mbit",
    "bits.decode_text.growth_exp": "1",
    "bits.stream_rng.calls": "count",
    "bits.stream_rng.self_ms": "ms",
    "transform.kernel.ms_per_mbit": "ms/Mbit",
    "transform.kernel.calls": "count",
    "transform.kernel.growth_exp": "1",
    "transform.blo_io.self_ms": "ms",
    "attack.forge.ms_per_mbit": "ms/Mbit",
    "attack.forge.calls": "count",
    "attack.forge.growth_exp": "1",
    "matcher.match.calls": "count",
    "matcher.match.self_us_per_call": "us",
    "store.enroll.self_ms": "ms",
    "store.enroll.bytes_written": "B",
    "store.authenticate.self_ms": "ms",
    "store.load_template.self_ms": "ms",
    "store.list_records.calls": "count",
    "analysis.fiber_census.self_ms": "ms",
    "analysis.recovery_probability.self_ms": "ms",
    "analysis.linkability_study.self_ms": "ms",
    "analysis.revocability_check.self_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.traced_rounds": "count",
}

# (metric, traced function, tags of read/write_feature spans to include)
GROWTH = [
    ("bits.decode_text.growth_exp", "bits.read_feature", {".bits"}),
    ("transform.kernel.growth_exp", "transform.transform", None),
    ("attack.forge.growth_exp", "attack.forge", None),
]


def import_blokit():
    """Import blokit afresh from this checkout's ``src``."""
    for name in list(sys.modules):
        if name == "blokit" or name.startswith("blokit.") or name == workloads.SCRIPT_MODULE:
            del sys.modules[name]
    blokit = importlib.import_module("blokit")
    if Path(blokit.__file__).resolve().parent != SRC / "blokit":
        raise ImportError(f"blokit was imported from {blokit.__file__}, not from {SRC}")
    return blokit, importlib.import_module("blokit.cli")


def set_up(name: str, seed: int, scale: workloads.Scale, workdir: Path, speed: HostSpeed):
    """Set the workload up SETUPS times.

    Returns the last set-up's environment and workload, and the median
    set-up time, raw and scaled to the reference speed.
    """
    times = []
    speed.probe(force=True)
    for _ in range(SETUPS):
        start = CLOCK()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        blokit, cli = import_blokit()
        env = workloads.Env(ROOT, workdir, blokit, cli, speed)
        workload = workloads.WORKLOADS[name](env, seed, scale)
        times.append((start, CLOCK()))
    speed.probe(force=True)
    raw = statistics.median(t1 - t0 for t0, t1 in times)
    return env, workload, raw, statistics.median(speed.scaled([t]) for t in times)


def one_round(env, workload, index: int) -> workloads.Round:
    if workload.collect_between_rounds:
        gc.collect()
    env.speed.probe(force=True)
    result = workload.round(index)
    env.speed.probe(force=True)
    return result


def percentile(sorted_values: "list[float]", q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def time_left(start: float, seconds: float, rounds: list) -> bool:
    """Whether another round like the last one still ends within the run."""
    return not rounds or time.perf_counter() - start + rounds[-1].wall_s <= seconds


def untraced(env, workload, seconds: float, setup_raw: float, setup_scaled: float):
    rounds = []
    start = time.perf_counter()
    while time_left(start, seconds, rounds):
        rounds.append(one_round(env, workload, len(rounds)))

    def figures(duration):
        ops = sorted(duration(op) * 1e3 for r in rounds for op in r.ops)
        rate = rounds[0].work / statistics.median(duration(r.work_segments) for r in rounds)
        return statistics.median(ops), percentile(ops, 99), rate, len(ops)

    p50, p99, rate, count = figures(env.speed.scaled)
    raw_p50, raw_p99, raw_rate, _ = figures(lambda segments: sum(b - a for a, b in segments))
    metrics = {
        "setup_s": setup_scaled,
        "op_ms_p50": p50,
        "op_ms_p99": p99,
        "work_per_s": rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    summary = (
        f"rounds={len(rounds)} ops={count} probes={len(env.speed.slowness)} "
        f"slowness_median={env.speed.median():.3f} raw: setup_s={setup_raw:.5f} "
        f"op_ms_p50={raw_p50:.4f} op_ms_p99={raw_p99:.4f} work_per_s={raw_rate:.5g} "
        f"wall_s_per_round={statistics.median(r.wall_s for r in rounds):.5g}"
    )
    return rounds, metrics, summary


def layer_metrics(stats: tracing.SpanStats, rounds: int) -> "dict[str, float]":
    def self_ms(*names):
        return sum(stats.self_ns.get(n, 0) for n in names) / 1e6 / rounds

    def calls(name):
        return stats.calls.get(name, 0) / rounds

    def ms_per_mbit(name, tags=None):
        _, bits, ns = stats.tagged(name, tags)
        return ns / bits if bits else 0.0  # ns/bit == ms/Mbit

    match_calls = stats.calls.get("matcher.match_templates", 0)
    metrics = {}
    for m in tracing.MODULES:
        metrics[f"{m}.self_ms"] = stats.module_self_ns(m) / 1e6 / rounds
        metrics[f"{m}.calls"] = stats.module_calls(m) / rounds
    metrics.update({
        "cli.build_parser.self_ms": self_ms("cli.build_parser"),
        "cli.run.self_ms": self_ms("cli.run"),
        "cli.run.calls": calls("cli.run"),
        "bits.decode_text.ms_per_mbit": ms_per_mbit("bits.read_feature", {".bits"}),
        "bits.decode_fbin.ms_per_mbit": ms_per_mbit("bits.read_feature", {".fbin"}),
        "bits.encode.ms_per_mbit": ms_per_mbit("bits.write_feature"),
        "bits.stream_rng.calls": calls("bits.stream_rng"),
        "bits.stream_rng.self_ms": self_ms("bits.stream_rng"),
        "transform.kernel.ms_per_mbit": ms_per_mbit("transform.transform"),
        "transform.kernel.calls": calls("transform.transform"),
        "transform.blo_io.self_ms": self_ms("transform.write_template_file",
                                            "transform.read_template_file"),
        "attack.forge.ms_per_mbit": ms_per_mbit("attack.forge"),
        "attack.forge.calls": calls("attack.forge"),
        "matcher.match.calls": calls("matcher.match_templates"),
        "matcher.match.self_us_per_call": (
            stats.self_ns.get("matcher.match_templates", 0) / 1e3 / match_calls if match_calls else 0.0
        ),
        "store.enroll.self_ms": self_ms("store.TemplateStore.enroll"),
        "store.enroll.bytes_written": stats.tagged("store.TemplateStore.enroll")[1] / rounds,
        "store.authenticate.self_ms": self_ms("store.TemplateStore.authenticate"),
        "store.load_template.self_ms": self_ms("store.TemplateStore.load_template"),
        "store.list_records.calls": calls("store.TemplateStore.list_records"),
        "analysis.fiber_census.self_ms": self_ms("analysis.fiber_census", "analysis.census_fibers"),
        "analysis.recovery_probability.self_ms": self_ms("analysis.recovery_probability"),
        "analysis.linkability_study.self_ms": self_ms("analysis.linkability_study"),
        "analysis.revocability_check.self_ms": self_ms("analysis.revocability_check"),
    })
    return metrics


def growth_metrics(spans: "list[list]", start: int, speed: HostSpeed) -> "dict[str, float]":
    """Growth exponents from the sweep's spans, each scaled by the host speed around it."""
    metrics = {}
    for metric, name, tags in GROWTH:
        by_size = {}
        for span in spans[start:]:
            if span[tracing.NAME] == name and (tags is None or span[tracing.TAG] in tags):
                t0, t1 = span[tracing.START] / 1e9, span[tracing.END] / 1e9
                by_size.setdefault(span[tracing.AMOUNT], []).append(speed.scaled([(t0, t1)]))
        points = [(n, statistics.median(ns)) for n, ns in sorted(by_size.items())]
        metrics[metric] = tracing.growth_exponent(points) if len(points) > 1 else 0.0
    return metrics


def timed_s(speed: HostSpeed, result: workloads.Round) -> float:
    """Scaled seconds a round spent in its timed calls, probes and checks left out."""
    return speed.scaled(sorted(set(result.work_segments).union(*result.ops)))


def traced(env, workload, seconds: float, scale: workloads.Scale, seed: int, spans_path: Path):
    """Alternate untraced and traced rounds, then sweep the size rungs traced."""
    tracer = tracing.Tracer()
    plain, traced_rounds = [], []
    start = time.perf_counter()
    index = 0
    while not traced_rounds or time_left(start, seconds, traced_rounds):
        if index % 2:
            tracer.install(env.blokit, workload.namespaces)
            try:
                traced_rounds.append(one_round(env, workload, index))
            finally:
                tracer.uninstall()
        else:
            plain.append(one_round(env, workload, index))
        index += 1
    round_spans = len(tracer.spans)
    tracer.install(env.blokit)
    try:
        sweep_attempted, sweep_failed = workloads.sweep(env, seed, scale)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracing.SpanStats(tracer.spans, 0, round_spans), len(traced_rounds))
    metrics.update(growth_metrics(tracer.spans, round_spans, env.speed))
    overhead = (statistics.median(timed_s(env.speed, r) for r in traced_rounds)
                / statistics.median(timed_s(env.speed, r) for r in plain) - 1)
    metrics["trace.overhead_pct"] = overhead * 100
    metrics["trace.traced_rounds"] = len(traced_rounds)
    tracing.write_spans(spans_path, tracer.spans)
    rounds = plain + traced_rounds + [workloads.Round(attempted=sweep_attempted, failed=sweep_failed)]
    summary = (f"plain_rounds={len(plain)} traced_rounds={len(traced_rounds)} "
               f"spans={len(tracer.spans)} spans_file={spans_path.relative_to(ROOT)}")
    return rounds, metrics, summary


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="workload input seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy sizes serve the smoke check only")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blokit" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no blokit sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    scale = workloads.TOY if args.scale == "toy" else workloads.FULL
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        env, workload, setup_raw, setup_scaled = set_up(args.workload, args.seed, scale, workdir,
                                                        HostSpeed())
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            rounds, metrics, summary = traced(env, workload, args.seconds, scale, args.seed, spans_path)
            units = PER_LAYER
        else:
            rounds, metrics, summary = untraced(env, workload, args.seconds, setup_raw, setup_scaled)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"# workload={args.workload} seed={args.seed} scale={args.scale} {summary} "
          f"attempted={attempted} failed={failed}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
