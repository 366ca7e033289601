#!/usr/bin/env python3
"""Time the README quick start as fresh processes: what a shell user pays per command.

Each run executes the README quick start (gen, enroll, attack preimage,
match) and an attack verify of the forgery as ``python -m blokit.cli``
in new processes, in order, and times a bare interpreter (``python -c pass``)
alongside them.  A process's time is its CPU time (user + system), read
from ``resource.getrusage(RUSAGE_CHILDREN)`` around it.  The report gives,
per command, the median over the runs, and the median over the runs of
each command's time minus the bare interpreter's: blokit's own share.

    python scripts/coldstart.py [--src PATH]

``--src`` names the directory blokit is imported from (default: this
checkout's ``src``), so two checkouts can be compared with one script.
The environment is passed on unchanged; with ``PYTHONDONTWRITEBYTECODE=1``
every process compiles blokit from source, unless an up-to-date ``.pyc``
is there to read.  The header line names the case: read from
``__pycache__``, compiled from source in every process, or written by the
first run.  Unix only (``resource``).
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import resource
import statistics
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
RUNS = 21

# (label, argv after ``python``, expected exit code, expected stdout)
BARE = ("python -c pass", ["-c", "pass"], 0, "")


def commands(workdir: Path) -> "list[tuple[str, list[str], int, str]]":
    f, t, forged = (str(workdir / name) for name in ("f.bits", "t.blo", "forged.bits"))
    cli = ["-m", "blokit.cli"]
    return [
        ("gen", [*cli, "gen", "--bits", "1795", "--seed", "7", "--out", f], 0, ""),
        ("enroll", [*cli, "enroll", "--in", f, "--block-size", "5", "--out", t], 0,
         "blocks\t359\ntemplate_bits\t1436\npreimages\t2^359\n"),
        ("attack preimage", [*cli, "attack", "preimage", "--template", t, "--selector", "0",
                             "--out", forged], 0, ""),
        ("match", [*cli, "match", "--template", t, "--probe", forged], 0, "1.000000\n"),
        ("attack verify", [*cli, "attack", "verify", "--template", t, "--probe", forged], 0,
         "result\tvalid\n"),
    ]


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed(argv: "list[str]", env: "dict[str, str]", code: int, stdout: str) -> float:
    """CPU seconds of one fresh process; raises if its exit code or stdout differ."""
    before = child_cpu_s()
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=120)
    spent = child_cpu_s() - before
    if (proc.returncode, proc.stdout) != (code, stdout):
        raise SystemExit(f"coldstart: {argv} gave exit {proc.returncode}, stdout {proc.stdout!r}, "
                         f"stderr {proc.stderr!r}")
    return spent


def fresh_pyc(py: Path) -> bool:
    """Whether imports read ``py``'s cached bytecode: a timestamp ``.pyc`` matching the source."""
    try:
        with open(importlib.util.cache_from_source(py), "rb") as f:
            head = f.read(16)
    except OSError:
        return False
    st = py.stat()
    stamp = struct.pack("<4xII", int(st.st_mtime) & 0xFFFFFFFF, st.st_size & 0xFFFFFFFF)
    return head == importlib.util.MAGIC_NUMBER + stamp


def bytecode_case(src: Path, env: "dict[str, str]") -> str:
    """How the runs get blokit's bytecode, as found before the first run.

    The children take the environment, not this process's ``-B`` flag, so
    ``PYTHONDONTWRITEBYTECODE`` decides whether they write ``.pyc`` files.
    A stale ``.pyc`` is not read, so it counts as none.
    """
    modules = sorted((src / "blokit").glob("*.py"))
    cached = sum(map(fresh_pyc, modules))
    rest = ("compiled from source in every process" if env.get("PYTHONDONTWRITEBYTECODE")
            else "written by the first run")
    if cached == len(modules):
        return "read from __pycache__"
    if cached:
        return f"read from __pycache__ for {cached} of {len(modules)} modules, else {rest}"
    return rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC, help="directory blokit is imported from")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    bytecode = bytecode_case(args.src, env)
    times: "dict[str, list[float]]" = {}
    with tempfile.TemporaryDirectory() as tmp:
        cases = [BARE, *commands(Path(tmp))]
        for _ in range(RUNS):
            for label, cmd, code, stdout in cases:
                times.setdefault(label, []).append(timed(cmd, env, code, stdout))
    bare = times[BARE[0]]
    own = {label: [t - b for t, b in zip(ts, bare)] for label, ts in times.items() if label != BARE[0]}
    own["all five"] = [sum(run) for run in zip(*own.values())]
    print(f"# {RUNS} runs, python {sys.version.split()[0]}, blokit from {args.src}, "
          f"bytecode {bytecode}")
    print("command\tcpu_ms\tblokit_ms")
    for label, ts in times.items():
        share = f"{statistics.median(own[label]) * 1e3:.1f}" if label in own else "-"
        print(f"{label}\t{statistics.median(ts) * 1e3:.1f}\t{share}")
    print(f"all five\t-\t{statistics.median(own['all five']) * 1e3:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
