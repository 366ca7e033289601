"""Check that one process can reuse its CLI parser for every command.

``blokit.cli.run`` reads a plain argument vector from lookup tables made
from the CLI's command declaration, and builds its argparse tree, from the
same declaration, once per process for any other vector.  This runs a fixed
list of commands through one in-process ``run``, forwards and then
backwards, and compares each outcome (exit code, stdout, stderr) with the
same command run in a fresh interpreter.  A third pass runs the list again
with the table path stubbed out, so argparse alone must give the same
outcomes too.  The list covers successes, usage errors, ``--help`` at three
levels, the mutually exclusive selector group, bad integer values and the
forms the tables leave to argparse: ``--opt=value``, an abbreviation, a
repeated option, a negative value and a ``-`` value.  COLUMNS is 80 on both
sides so help text wraps alike.  It needs no pytest, so it runs on any
supported Python:

    PYTHONPATH=src python tests/parser_reuse.py

It prints each command whose outcomes differ and exits 1 if there is one.
``tests/test_cli.py`` runs the same check under pytest.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from blokit import cli
from blokit.cli import run

SRC = Path(__file__).resolve().parent.parent / "src"

FRESH = "import sys; from blokit.cli import main; sys.exit(main())"


def make_cases(workdir: Path) -> "list[list[str]]":
    """Write a feature and its template into ``workdir``; return the argument lists."""
    feature, template = str(workdir / "f.bits"), str(workdir / "t.blo")
    other = str(workdir / "g.bits")
    for args in (
        ["gen", "--bits", "40", "--seed", "7", "--out", feature],
        ["enroll", "--in", feature, "--block-size", "5", "--out", template],
    ):
        assert run(args).exit_code == 0, args
    preimage = ["attack", "preimage", "--template", template]
    return [
        ["table", "--block-size", "3"],
        ["analyze", "census", "--bits", "10", "--block-size", "5"],
        ["analyze", "recovery", "--bits", "10", "--block-size", "5", "--trials", "20",
         "--seed", "3", "--json"],
        ["match", "--template", template, "--probe", feature],
        preimage + ["--selector", "101"],
        preimage + ["--random", "--seed", "5"],
        ["attack", "verify", "--template", template, "--probe", feature],
        [],
        ["--help"],
        ["attack", "--help"],
        ["attack", "preimage", "--help"],
        ["analyze", "link", "--help"],
        ["frobnicate"],
        ["attack"],
        ["store"],
        ["gen", "--bits", "10"],
        ["gen", "--bits", "x", "--seed", "1", "--out", "f"],
        ["gen", "--bits", "8", "--seed", "1", "--out", "f", "--bogus"],
        ["table", "--block-size", "x"],
        ["table", "--block-size", "4"],
        ["enroll", "--in", feature, "--block-size", "x", "--out", template],
        preimage,
        preimage + ["--selector", "1", "--random"],
        preimage + ["--enumerate"],
        ["store", "list", "--root", str(workdir / "missing")],
        ["gen", "--bits=40", "--seed", "7", "--out", other],
        ["gen", "--bi", "40", "--seed", "7", "--out", other],
        ["gen", "--bits", "40", "--seed", "7", "--seed", "8", "--out", other],
        ["analyze", "recovery", "--bits", "10", "--block-size", "5", "--trials", "20",
         "--seed", "-5"],
        preimage + ["--enumerate", "--limit", "3", "--out", "-"],
    ]


def fresh_outcome(args: "list[str]", env: "dict[str, str]") -> "tuple[int, str, str]":
    proc = subprocess.run(
        [sys.executable, "-c", FRESH, *args],
        env=env, capture_output=True, encoding="utf-8", timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def mismatches(workdir: Path) -> "list[str]":
    """Each command whose in-process outcome differs from a fresh interpreter's.

    The caller sets COLUMNS to 80 in this process's environment.
    """
    cases = make_cases(workdir)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
    fresh = [fresh_outcome(args, env) for args in cases]
    found = []

    def compare(order, label=""):
        for i in order:
            outcome = run(cases[i])
            if (outcome.exit_code, outcome.stdout, outcome.stderr) != fresh[i]:
                found.append((" ".join(cases[i]) or "(no arguments)") + label)

    compare(range(len(cases)))
    compare(reversed(range(len(cases))))
    from_tables, cli._from_tables = cli._from_tables, lambda argv: None
    try:
        compare(range(len(cases)), " (argparse alone)")
    finally:
        cli._from_tables = from_tables
    return found


def main() -> int:
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        found = mismatches(Path(tmp))
    for args in found:
        print(f"differs from a fresh interpreter: blokit {args}")
    print(f"python {sys.version.split()[0]}: {len(found)} in-process outcomes differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
