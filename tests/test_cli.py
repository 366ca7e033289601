import argparse
import errno
import io
import os
import shlex
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from blokit import (
    InvalidArgumentError,
    MalformedInputError,
    analysis,
    cli,
    from_text,
    read_template_file,
)
from blokit.bits import read_bits_file, read_feature, write_feature
from blokit.cli import run

from conftest import DATA_DIR, GEN_1795_SEED7_BITS, TABLE_B5_FIXTURE, store_state
from parser_reuse import SRC, mismatches


def ok(args):
    outcome = run(args)
    assert outcome.exit_code == 0, outcome.stderr
    return outcome


class TestPipeline:
    def test_gen_enroll_attack_match(self, tmp_path):
        f = tmp_path / "f.bits"
        t = tmp_path / "t.blo"
        forged = tmp_path / "forged.bits"

        ok(["gen", "--bits", "1795", "--seed", "7", "--out", str(f)])
        assert read_bits_file(f).length == 1795

        out = ok(["enroll", "--in", str(f), "--block-size", "5", "--out", str(t)])
        assert "template_bits\t1436" in out.stdout
        assert "blocks\t359" in out.stdout
        assert "preimages\t2^359" in out.stdout
        tpl = read_template_file(t)
        assert tpl.data.length == 1436

        ok(["attack", "preimage", "--template", str(t), "--selector", "0", "--out", str(forged)])
        match = ok(["match", "--template", str(t), "--probe", str(forged)])
        assert match.stdout == "1.000000\n"

        verify = ok(["attack", "verify", "--template", str(t), "--probe", str(forged)])
        assert verify.stdout == "result\tvalid\n"

    def test_gen_writes_the_golden_bits_file(self, tmp_path):
        f, copy = tmp_path / "f.bits", tmp_path / "copy.bits"
        ok(["gen", "--bits", "1795", "--seed", "7", "--out", str(f)])
        golden = GEN_1795_SEED7_BITS.read_bytes()
        assert f.read_bytes() == golden
        write_feature(copy, read_feature(GEN_1795_SEED7_BITS))
        assert copy.read_bytes() == golden

    def test_shorter_gen_over_a_longer_file_writes_the_golden_bits_file(self, tmp_path):
        f = tmp_path / "f.bits"
        ok(["gen", "--bits", "4096", "--seed", "7", "--out", str(f)])
        ok(["gen", "--bits", "1795", "--seed", "7", "--out", str(f)])
        assert f.read_bytes() == GEN_1795_SEED7_BITS.read_bytes()

    def test_shorter_enroll_over_a_longer_template_writes_the_fresh_bytes(self, tmp_path):
        long, t, fresh = tmp_path / "long.bits", tmp_path / "t.blo", tmp_path / "fresh.blo"
        ok(["gen", "--bits", "4096", "--seed", "7", "--out", str(long)])
        ok(["enroll", "--in", str(long), "--block-size", "5", "--out", str(t)])
        for out in (t, fresh):
            ok(["enroll", "--in", str(GEN_1795_SEED7_BITS), "--block-size", "5", "--out", str(out)])
        assert t.read_bytes() == fresh.read_bytes()
        assert len(fresh.read_bytes()) == 16 + 180  # header and 1436 packed bits

    def test_genuine_probe_matches_itself(self, tmp_path):
        f = tmp_path / "f.bits"
        t = tmp_path / "t.blo"
        ok(["gen", "--bits", "100", "--seed", "3", "--out", str(f)])
        ok(["enroll", "--in", str(f), "--block-size", "5", "--out", str(t)])
        assert run(["match", "--template", str(t), "--probe", str(f)]).exit_code == 0

    def test_wrong_probe_rejects_with_exit_2(self, tmp_path):
        f1, f2, t = tmp_path / "a.bits", tmp_path / "b.bits", tmp_path / "t.blo"
        ok(["gen", "--bits", "100", "--seed", "1", "--out", str(f1)])
        ok(["gen", "--bits", "100", "--seed", "2", "--out", str(f2)])
        ok(["enroll", "--in", str(f1), "--block-size", "5", "--out", str(t)])
        outcome = run(["match", "--template", str(t), "--probe", str(f2)])
        assert outcome.exit_code == 2
        assert outcome.stdout.endswith("\n")
        verify = run(["attack", "verify", "--template", str(t), "--probe", str(f2)])
        assert verify.exit_code == 2
        assert verify.stdout == "result\tinvalid\n"

    def test_fbin_output_supported(self, tmp_path):
        f = tmp_path / "f.fbin"
        ok(["gen", "--bits", "64", "--seed", "5", "--out", str(f)])
        assert f.read_bytes()[:4] == b"FBV1"


class TestTable:
    def test_b5_output_equals_fixture(self):
        outcome = ok(["table", "--block-size", "5"])
        assert outcome.stdout == TABLE_B5_FIXTURE.read_text(encoding="utf-8")

    def test_oversized_block_size_is_usage_error(self):
        assert run(["table", "--block-size", "19"]).exit_code == 1

    def test_even_block_size_is_usage_error(self):
        assert run(["table", "--block-size", "30"]).exit_code == 1


class TestAttackPreimage:
    @pytest.fixture
    def template(self, tmp_path):
        f, t = tmp_path / "f.bits", tmp_path / "t.blo"
        f.write_text("1001010000\n")
        ok(["enroll", "--in", str(f), "--block-size", "5", "--out", str(t)])
        return t

    def test_selector_forgery_to_stdout(self, template):
        outcome = ok(["attack", "preimage", "--template", str(template), "--selector", "01"])
        assert outcome.stdout == "1001001111\n"

    def test_short_selector_is_left_padded(self, template):
        padded = ok(["attack", "preimage", "--template", str(template), "--selector", "1"])
        explicit = ok(["attack", "preimage", "--template", str(template), "--selector", "01"])
        assert padded.stdout == explicit.stdout

    def test_oversized_selector_rejected(self, template):
        outcome = run(["attack", "preimage", "--template", str(template), "--selector", "011"])
        assert outcome.exit_code == 1

    def test_enumerate_lists_fiber_in_order(self, template):
        outcome = ok(
            ["attack", "preimage", "--template", str(template), "--enumerate", "--limit", "10"]
        )
        assert outcome.stdout.splitlines() == [
            "1001010000",
            "1001001111",
            "0110110000",
            "0110101111",
        ]

    def test_enumerate_respects_limit(self, template):
        outcome = ok(
            ["attack", "preimage", "--template", str(template), "--enumerate", "--limit", "3"]
        )
        assert len(outcome.stdout.splitlines()) == 3

    def test_main_streams_forgeries_as_they_are_made(self, template, monkeypatch):
        args = ["attack", "preimage", "--template", str(template), "--enumerate", "--limit", "3"]
        writes = []

        class CountingStdout(io.StringIO):
            def write(self, s):
                writes.append(s)
                return super().write(s)

        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main(args) == 0
        monkeypatch.undo()
        assert len(writes) > 1
        assert out.getvalue() == ok(args).stdout

    def test_enumerate_requires_limit(self, template):
        assert run(["attack", "preimage", "--template", str(template), "--enumerate"]).exit_code == 1

    def test_random_requires_seed(self, template):
        assert run(["attack", "preimage", "--template", str(template), "--random"]).exit_code == 1

    def test_random_echoes_selector_and_is_reproducible(self, template, tmp_path):
        args = ["attack", "preimage", "--template", str(template), "--random", "--seed", "11"]
        one, two = ok(args), ok(args)
        assert one.stdout == two.stdout
        selector_line, vector_line = one.stdout.splitlines()
        assert selector_line.startswith("selector\t")
        sel = selector_line.split("\t")[1]
        echoed = ok(["attack", "preimage", "--template", str(template), "--selector", sel])
        assert echoed.stdout.splitlines()[0] == vector_line

    def test_forged_file_verifies(self, template, tmp_path):
        forged = tmp_path / "x.bits"
        ok(
            ["attack", "preimage", "--template", str(template), "--random", "--seed", "4",
             "--out", str(forged)]
        )
        assert run(["attack", "verify", "--template", str(template), "--probe", str(forged)]).exit_code == 0


class TestAnalyze:
    def test_census_exit_codes(self):
        assert run(["analyze", "census", "--bits", "10", "--block-size", "5"]).exit_code == 0
        assert run(["analyze", "census", "--bits", "25", "--block-size", "5"]).exit_code == 3
        assert run(["analyze", "census", "--bits", "12", "--block-size", "5"]).exit_code == 1

    def test_census_report_content(self):
        outcome = ok(["analyze", "census", "--bits", "10", "--block-size", "5"])
        assert "finding.distinct_templates\t256" in outcome.stdout
        assert "finding.fiber_size\t4" in outcome.stdout

    def test_json_flag(self):
        import json

        outcome = ok(["analyze", "census", "--bits", "10", "--block-size", "5", "--json"])
        doc = json.loads(outcome.stdout)
        assert doc["findings"]["fiber_size"] == 4

    @pytest.mark.parametrize(
        "args",
        [
            ["gen", "--seed", "1", "--out", "f.fbin"],
            ["analyze", "revoke", "--seed", "1", "--attempts", "2", "--block-size", "5"],
        ],
        ids=["gen", "revoke"],
    )
    def test_synthetic_bits_bound_holds_at_the_u32_limit(self, args, tmp_path, monkeypatch):
        # The stand-in draws nothing, so neither length allocates a feature.
        calls = []

        def drawn(length, seed):
            calls.append(length)
            raise InvalidArgumentError("drawn")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "random_bits", drawn)
        refused = run(args + ["--bits", str(1 << 32)])
        assert (refused.exit_code, refused.stdout, calls) == (3, "", [])
        assert refused.stderr == (
            "blokit: capacity: 4294967296-bit feature exceeds the 2^32 - 1 bit bound\n"
        )
        reached = run(args + ["--bits", str((1 << 32) - 1)])
        assert (reached.exit_code, reached.stderr) == (1, "blokit: error: drawn\n")
        assert calls == [(1 << 32) - 1]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "args,draw",
        [
            (["analyze", "recovery", "--trials", "1"], "stream_draws"),
            (["analyze", "link", "--users", "2", "--devices", "2"], "random_bits"),
        ],
        ids=["recovery", "link"],
    )
    def test_study_bits_bound_holds_at_the_u32_limit(self, args, draw, monkeypatch):
        # The stand-in draws nothing, so neither length allocates a feature.
        calls = []

        def drawn(seed_or_length, *rest):
            calls.append(seed_or_length)
            raise InvalidArgumentError("drawn")

        monkeypatch.setattr(analysis, draw, drawn)
        args = args + ["--block-size", "5", "--seed", "1", "--bits"]
        refused = run(args + [str((1 << 32) + 4)])
        assert (refused.exit_code, refused.stdout, calls) == (3, "", [])
        assert refused.stderr == (
            "blokit: capacity: 4294967300-bit feature exceeds the 2^32 - 1 bit bound\n"
        )
        reached = run(args + [str((1 << 32) - 1)])
        assert (reached.exit_code, reached.stderr) == (1, "blokit: error: drawn\n")
        assert len(calls) == 1

    def test_recovery_requires_seed(self):
        args = ["analyze", "recovery", "--bits", "10", "--block-size", "5", "--trials", "10"]
        assert run(args).exit_code == 1
        assert run(args + ["--seed", "1"]).exit_code == 0

    def test_link_report(self):
        outcome = ok(
            ["analyze", "link", "--users", "3", "--devices", "2", "--bits", "50",
             "--block-size", "5", "--seed", "1"]
        )
        assert "finding.link_rate\t1.0" in outcome.stdout

    def test_revoke_accepts_file_or_seed(self, tmp_path):
        f = tmp_path / "f.bits"
        f.write_text("10110\n")
        by_file = ok(
            ["analyze", "revoke", "--in", str(f), "--attempts", "5", "--block-size", "5"]
        )
        assert "finding.distinct_templates\t1" in by_file.stdout
        by_seed = ok(
            ["analyze", "revoke", "--bits", "20", "--seed", "2", "--attempts", "5",
             "--block-size", "5"]
        )
        assert "finding.distinct_templates\t1" in by_seed.stdout
        assert run(["analyze", "revoke", "--attempts", "5", "--block-size", "5"]).exit_code == 1


class TestStoreCommands:
    def test_enroll_auth_list_flow(self, tmp_path):
        f, forged = tmp_path / "f.bits", tmp_path / "forged.bits"
        root = tmp_path / "store"
        t = tmp_path / "t.blo"
        ok(["gen", "--bits", "1795", "--seed", "21", "--out", str(f)])
        ok(["store", "enroll", "--root", str(root), "--device", "d1", "--user", "alice",
            "--in", str(f), "--block-size", "5"])

        genuine = run(["store", "auth", "--root", str(root), "--device", "d1",
                       "--user", "alice", "--probe", str(f)])
        assert genuine.exit_code == 0
        assert genuine.stdout == "1.000000\n"

        ok(["enroll", "--in", str(f), "--block-size", "5", "--out", str(t)])
        ok(["attack", "preimage", "--template", str(t), "--random", "--seed", "5",
            "--out", str(forged)])
        forged_auth = run(["store", "auth", "--root", str(root), "--device", "d1",
                           "--user", "alice", "--probe", str(forged)])
        assert forged_auth.exit_code == 0

        listing = ok(["store", "list", "--root", str(root)])
        fields = listing.stdout.splitlines()[0].split("\t")
        assert fields[:3] == ["d1", "alice", "d1/alice.blo"]
        assert fields[3:5] == ["5", "1795"]

    def test_auth_unknown_user_is_error(self, tmp_path):
        root = tmp_path / "store"
        f = tmp_path / "f.bits"
        ok(["gen", "--bits", "20", "--seed", "1", "--out", str(f)])
        ok(["store", "enroll", "--root", str(root), "--device", "d1", "--user", "u1",
            "--in", str(f), "--block-size", "5"])
        outcome = run(["store", "auth", "--root", str(root), "--device", "d1",
                       "--user", "ghost", "--probe", str(f)])
        assert outcome.exit_code == 1

    def test_auth_wrong_probe_rejects(self, tmp_path):
        root = tmp_path / "store"
        f1, f2 = tmp_path / "a.bits", tmp_path / "b.bits"
        ok(["gen", "--bits", "100", "--seed", "1", "--out", str(f1)])
        ok(["gen", "--bits", "100", "--seed", "2", "--out", str(f2)])
        ok(["store", "enroll", "--root", str(root), "--device", "d1", "--user", "u1",
            "--in", str(f1), "--block-size", "5"])
        assert run(["store", "auth", "--root", str(root), "--device", "d1", "--user", "u1",
                    "--probe", str(f2)]).exit_code == 2

    def test_enroll_through_a_dangling_manifest_symlink_is_error(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / "manifest.tsv").symlink_to("../outside.tsv")
        f = tmp_path / "f.bits"
        ok(["gen", "--bits", "20", "--seed", "1", "--out", str(f)])
        outcome = run(["store", "enroll", "--root", str(root), "--device", "d1", "--user", "u1",
                       "--in", str(f), "--block-size", "5"])
        assert outcome.exit_code == 1
        assert outcome.stderr.startswith(f"blokit: error: cannot write to store at {root}: ")
        assert not (tmp_path / "outside.tsv").exists()

    @pytest.mark.parametrize(
        "fifo, command, error",
        [
            ("manifest.tsv", "list", "{root}/manifest.tsv is not a regular file"),
            ("manifest.tsv", "enroll", "{root}/manifest.tsv is not a regular file"),
            ("d1/u1.blo", "enroll",
             "cannot write to store at {root}: {root}/d1/u1.blo is not a regular file"),
            ("d1/u1.blo", "auth", "no enrollment for device=d1 user=u1"),
        ],
        ids=["manifest-list", "manifest-enroll", "blo-enroll", "blo-auth"],
    )
    def test_fifo_in_the_store_is_refused_at_once(self, tmp_path, fifo, command, error):
        root, f = tmp_path / "store", tmp_path / "f.bits"
        ok(["gen", "--bits", "20", "--seed", "1", "--out", str(f)])
        ok(["store", "enroll", "--root", str(root), "--device", "d1", "--user", "u0",
            "--in", str(f), "--block-size", "5"])
        (root / fifo).unlink(missing_ok=True)
        os.mkfifo(root / fifo)
        before = store_state(root)
        args = {
            "list": [],
            "enroll": ["--device", "d1", "--user", "u1", "--in", str(f), "--block-size", "5"],
            "auth": ["--device", "d1", "--user", "u1", "--probe", str(f)],
        }[command]
        # In a child process: a store call that blocks on the FIFO fails the
        # test at the timeout instead of hanging the suite.
        proc = subprocess.run(
            [sys.executable, "-m", "blokit.cli", "store", command, "--root", str(root), *args],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", f"blokit: error: {error.format(root=root)}\n")
        assert store_state(root) == before

    def test_dot_root_names_a_reraised_os_error_without_a_prefix(self, tmp_path, monkeypatch):
        ok(["gen", "--bits", "20", "--seed", "1", "--out", str(tmp_path / "f.bits")])
        monkeypatch.chdir(tmp_path)
        ok(["store", "enroll", "--root", ".", "--device", "d1", "--user", "u1", "--in", "f.bits",
            "--block-size", "5"])
        outcome = run(["store", "auth", "--root", ".", "--device", "d1", "--user", "u" * 300,
                       "--probe", "f.bits"])
        assert (outcome.exit_code, outcome.stdout, outcome.stderr) == (1, "", (
            f"blokit: error: [Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}: "
            f"'d1/{'u' * 300}.blo'\n"))

    def test_non_utf8_manifest_is_one_line_error(self, tmp_path):
        root = tmp_path / "store"
        f = tmp_path / "f.bits"
        ok(["gen", "--bits", "20", "--seed", "1", "--out", str(f)])
        ok(["store", "enroll", "--root", str(root), "--device", "d1", "--user", "u1",
            "--in", str(f), "--block-size", "5"])
        manifest = root / "manifest.tsv"
        head = manifest.read_bytes()
        manifest.write_bytes(head + b"d1\tu\xff\n")
        error = f"blokit: error: manifest line 2: not UTF-8 text (byte {len(head) + 4})\n"
        for args in (
            ["store", "list", "--root", str(root)],
            ["store", "enroll", "--root", str(root), "--device", "d1", "--user", "u2",
             "--in", str(f), "--block-size", "5"],
        ):
            outcome = run(args)
            assert (outcome.exit_code, outcome.stdout, outcome.stderr) == (1, "", error), args

    def test_unencodable_id_is_one_line_error(self, tmp_path):
        # A non-UTF-8 byte in argv reaches an id as a lone surrogate.
        root, f = tmp_path / "store", tmp_path / "f.bits"
        ok(["gen", "--bits", "20", "--seed", "1", "--out", str(f)])
        ok(["store", "enroll", "--root", str(root), "--device", "d1", "--user", "u1",
            "--in", str(f), "--block-size", "5"])
        manifest = (root / "manifest.tsv").read_bytes()
        outcome = run(["store", "enroll", "--root", str(root), "--device", "\udcff", "--user",
                       "u1", "--in", str(f), "--block-size", "5"])
        assert (outcome.exit_code, outcome.stdout, outcome.stderr) == (
            1, "", "blokit: error: malformed device id: '\\udcff'\n")
        assert sorted(p.name for p in root.iterdir()) == ["d1", "manifest.tsv"]
        assert (root / "manifest.tsv").read_bytes() == manifest

    @pytest.mark.parametrize(
        "flag, value, error",
        [
            ("--device", "a/b", "malformed device id: 'a/b'"),
            ("--block-size", "65537", "block size 65537 does not fit the 16-bit header field"),
            ("--in", "missing.bits", "[Errno 2] No such file or directory: 'missing.bits'"),
        ],
        ids=["malformed-id", "block-size-65537", "missing-in"],
    )
    def test_refused_enroll_creates_no_root(self, tmp_path, monkeypatch, flag, value, error):
        monkeypatch.chdir(tmp_path)
        ok(["gen", "--bits", "20", "--seed", "1", "--out", "f.bits"])
        args = {"--root": "new/x/y", "--device": "d1", "--user": "u1", "--in": "f.bits",
                "--block-size": "5"}
        outcome = run(["store", "enroll", *chain(*{**args, flag: value}.items())])
        assert (outcome.exit_code, outcome.stdout, outcome.stderr) == (
            1, "", f"blokit: error: {error}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["f.bits"]
        ok(["store", "enroll", *chain(*args.items())])
        assert sorted(p.name for p in (tmp_path / "new/x/y").iterdir()) == ["d1", "manifest.tsv"]

    @pytest.mark.parametrize("change", ["truncate", "extend"])
    def test_payload_size_errors_name_the_file(self, tmp_path, change):
        f, t, fbin = tmp_path / "f.bits", tmp_path / "t.blo", tmp_path / "f.fbin"
        root = tmp_path / "store"
        ok(["gen", "--bits", "1795", "--seed", "3", "--out", str(f)])
        ok(["gen", "--bits", "1795", "--seed", "3", "--out", str(fbin)])
        ok(["enroll", "--in", str(f), "--block-size", "5", "--out", str(t)])
        ok(["store", "enroll", "--root", str(root), "--device", "d1", "--user", "alice",
            "--in", str(f), "--block-size", "5"])
        stored = root / "d1" / "alice.blo"
        bad_t, bad_fbin = tmp_path / "bad.blo", tmp_path / "bad.fbin"
        for good, bad in [(t, bad_t), (fbin, bad_fbin), (stored, stored)]:
            raw = good.read_bytes()
            bad.write_bytes(raw[:-1] if change == "truncate" else raw + b"\0")
        blo_bytes, fbin_bytes = {"truncate": (179, 224), "extend": (181, 226)}[change]

        def blo_error(path):
            return f"{path}: packed payload is {blo_bytes} bytes, expected 180 for 1436 bits"

        def fbin_error(path):
            return f"{path}: packed payload is {fbin_bytes} bytes, expected 225 for 1795 bits"

        auth = ["store", "auth", "--root", str(root), "--device", "d1", "--user", "alice"]
        for args, error in [
            (auth + ["--probe", str(f)], blo_error(stored)),
            (["match", "--template", str(bad_t), "--probe", str(f)], blo_error(bad_t)),
            (["match", "--template", str(t), "--probe", str(bad_fbin)], fbin_error(bad_fbin)),
            (["attack", "verify", "--template", str(bad_t), "--probe", str(f)], blo_error(bad_t)),
        ]:
            outcome = run(args)
            assert (outcome.exit_code, outcome.stdout, outcome.stderr) == (
                1, "", f"blokit: error: {error}\n"), args
        stored.write_bytes(t.read_bytes())
        outcome = run(auth + ["--probe", str(bad_fbin)])
        assert outcome.stderr == f"blokit: error: {fbin_error(bad_fbin)}\n"
        with pytest.raises(MalformedInputError) as exc:
            read_feature(bad_fbin)
        assert str(exc.value) == fbin_error(bad_fbin)


HELP_TARGETS = [
    [],
    ["gen"],
    ["enroll"],
    ["match"],
    ["table"],
    ["attack"],
    ["attack", "preimage"],
    ["attack", "verify"],
    ["analyze"],
    ["analyze", "census"],
    ["analyze", "recovery"],
    ["analyze", "link"],
    ["analyze", "revoke"],
    ["store"],
    ["store", "enroll"],
    ["store", "auth"],
    ["store", "list"],
]

USAGE_ERRORS = [
    [],
    ["frobnicate"],
    ["gen"],
    ["gen", "--bits", "10"],
    ["gen", "--bits", "x", "--seed", "1", "--out", "f"],
    ["attack"],
    ["analyze"],
    ["store"],
    ["match", "--template"],
]

# Python 3.13 wraps the usage lines of `attack preimage`, `store enroll` and `store auth` differently.
USAGE_GOLDEN = DATA_DIR / ("cli_usage_py313.txt" if sys.version_info >= (3, 13) else "cli_usage.txt")


def usage_transcript():
    """Exit code, stdout and stderr of `--help` at every level and of every usage error.

    With COLUMNS=80, this is the text of ``USAGE_GOLDEN``; to rewrite the file
    after an intended change to help or usage text, run from the repo root:

        COLUMNS=80 PYTHONPATH=src:tests python -c \\
            "import test_cli; print(test_cli.usage_transcript(), end='')" > FILE
    """
    parts = []
    for args in [target + ["--help"] for target in HELP_TARGETS] + USAGE_ERRORS:
        outcome = run(args)
        parts.append(f"$ {' '.join(['blokit', *args])}\nexit {outcome.exit_code}\n"
                     f"--- stdout\n{outcome.stdout}--- stderr\n{outcome.stderr}")
    return "".join(parts)


class TestUsageContract:
    @pytest.mark.parametrize("target", HELP_TARGETS, ids=lambda t: " ".join(t) or "root")
    def test_help_everywhere(self, target):
        outcome = run(target + ["--help"])
        assert outcome.exit_code == 0
        assert "usage" in outcome.stdout.lower()

    @pytest.mark.parametrize("args", USAGE_ERRORS)
    def test_usage_errors_exit_1(self, args):
        outcome = run(args)
        assert outcome.exit_code == 1
        assert outcome.stderr

    def test_help_and_usage_error_text_match_the_golden(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert usage_transcript() == USAGE_GOLDEN.read_text(encoding="utf-8")

    def test_missing_file_is_error(self, tmp_path):
        outcome = run(["enroll", "--in", str(tmp_path / "nope.bits"),
                       "--block-size", "5", "--out", str(tmp_path / "t.blo")])
        assert outcome.exit_code == 1

    def test_directory_template_names_the_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ok(["gen", "--bits", "20", "--seed", "1", "--out", "f.bits"])
        (tmp_path / "adir.bits").mkdir()
        outcome = run(["match", "--template", "adir.bits", "--probe", "f.bits"])
        assert (outcome.exit_code, outcome.stdout, outcome.stderr) == (
            1, "", "blokit: error: [Errno 21] Is a directory: 'adir.bits'\n")

    def test_enroll_reads_a_fifo(self, tmp_path):
        fifo, t = tmp_path / "f.fifo", tmp_path / "t.blo"
        os.mkfifo(fifo)
        writer = threading.Thread(
            target=fifo.write_bytes, args=(GEN_1795_SEED7_BITS.read_bytes(),), daemon=True)
        writer.start()
        outcome = run(["enroll", "--in", str(fifo), "--block-size", "5", "--out", str(t)])
        writer.join(timeout=10)
        assert not writer.is_alive()
        expected = ok(["enroll", "--in", str(GEN_1795_SEED7_BITS), "--block-size", "5",
                       "--out", str(tmp_path / "u.blo")])
        assert outcome == expected
        assert t.read_bytes() == (tmp_path / "u.blo").read_bytes()

    def test_non_utf8_bits_file_is_error(self, tmp_path):
        f, bad, t = tmp_path / "f.bits", tmp_path / "bad.bits", tmp_path / "t.blo"
        root = str(tmp_path / "store")
        ok(["gen", "--bits", "20", "--seed", "1", "--out", str(f)])
        ok(["enroll", "--in", str(f), "--block-size", "5", "--out", str(t)])
        ok(["store", "enroll", "--root", root, "--device", "d1", "--user", "u1",
            "--in", str(f), "--block-size", "5"])
        bad.write_bytes(b"\xff\xfe01")
        for args in (
            ["enroll", "--in", str(bad), "--block-size", "5", "--out", str(tmp_path / "x.blo")],
            ["match", "--template", str(t), "--probe", str(bad)],
            ["attack", "verify", "--template", str(t), "--probe", str(bad)],
            ["store", "enroll", "--root", root, "--device", "d1", "--user", "u2",
             "--in", str(bad), "--block-size", "5"],
            ["store", "auth", "--root", root, "--device", "d1", "--user", "u1",
             "--probe", str(bad)],
        ):
            outcome = run(args)
            assert outcome.exit_code == 1, args
            assert outcome.stdout == ""
            assert outcome.stderr.startswith(f"blokit: error: {bad}: "), args

    def test_invalid_bits_character_names_the_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ok(["gen", "--bits", "20", "--seed", "1", "--out", "f.bits"])
        ok(["enroll", "--in", "f.bits", "--block-size", "5", "--out", "t.blo"])
        ok(["store", "enroll", "--root", "store", "--device", "d1", "--user", "u1",
            "--in", "f.bits", "--block-size", "5"])
        (tmp_path / "bad.bits").write_bytes(b"1012\n")
        for args in (
            ["enroll", "--in", "bad.bits", "--block-size", "5", "--out", "x.blo"],
            ["match", "--template", "t.blo", "--probe", "bad.bits"],
            ["store", "auth", "--root", "store", "--device", "d1", "--user", "u1",
             "--probe", "bad.bits"],
        ):
            outcome = run(args)
            assert (outcome.exit_code, outcome.stdout) == (1, ""), args
            assert outcome.stderr == (
                "blokit: error: bad.bits: invalid character '2' at position 3\n"
            )
        assert not (tmp_path / "x.blo").exists()

    @pytest.mark.parametrize(
        "args, error",
        [(["match", "--template", "./bad.blo", "--probe", "f.bits"],
          "bad.blo: not a template file (bad magic)"),
         (["enroll", "--in", "./empty.bits", "--block-size", "5", "--out", "x.blo"],
          "empty.bits: empty feature file")],
        ids=["bad-template", "empty-feature"],
    )
    def test_dot_slash_file_is_named_as_a_missing_one_is(self, tmp_path, monkeypatch, args, error):
        monkeypatch.chdir(tmp_path)
        ok(["gen", "--bits", "20", "--seed", "1", "--out", "f.bits"])
        (tmp_path / "bad.blo").write_bytes(b"XXXX")
        (tmp_path / "empty.bits").write_bytes(b"")
        outcome = run(args)
        assert (outcome.exit_code, outcome.stdout, outcome.stderr) == (
            1, "", f"blokit: error: {error}\n")
        assert not (tmp_path / "x.blo").exists()

    def test_even_block_size_reports_error(self, tmp_path):
        f = tmp_path / "f.bits"
        f.write_text("101010\n")
        outcome = run(["enroll", "--in", str(f), "--block-size", "30",
                       "--out", str(tmp_path / "t.blo")])
        assert outcome.exit_code == 1
        assert "odd" in outcome.stderr

    def test_block_size_bound_holds_at_the_u16_header_field(self, tmp_path):
        f, t, big = tmp_path / "f.bits", tmp_path / "t.blo", tmp_path / "big.blo"
        root = tmp_path / "store"
        ok(["gen", "--bits", "1795", "--seed", "4", "--out", str(f)])
        ok(["enroll", "--in", str(f), "--block-size", "65535", "--out", str(t)])
        assert ok(["match", "--template", str(t), "--probe", str(f)]).stdout == "1.000000\n"
        ok(["store", "enroll", "--root", str(root), "--device", "d1", "--user", "u1",
            "--in", str(f), "--block-size", "5"])
        manifest, layout = (root / "manifest.tsv").read_bytes(), sorted(root.rglob("*"))
        error = "blokit: error: block size 65537 does not fit the 16-bit header field\n"
        for args in (
            ["enroll", "--in", str(f), "--block-size", "65537", "--out", str(big)],
            *(["store", "enroll", "--root", str(root), "--device", device, "--user", "u2",
               "--in", str(f), "--block-size", "65537"] for device in ("d1", "d2")),
        ):
            outcome = run(args)
            assert (outcome.exit_code, outcome.stdout, outcome.stderr) == (1, "", error), args
        assert not big.exists()
        assert (root / "manifest.tsv").read_bytes() == manifest
        assert sorted(root.rglob("*")) == layout


DETERMINISTIC_COMMANDS = st.one_of(
    st.tuples(st.sampled_from([3, 5, 7])).map(
        lambda t: ["table", "--block-size", str(t[0])]
    ),
    st.tuples(st.sampled_from([5, 10])).map(
        lambda t: ["analyze", "census", "--bits", str(t[0]), "--block-size", "5"]
    ),
    st.tuples(st.integers(0, 2**63 - 1), st.integers(1, 50)).map(
        lambda t: ["analyze", "recovery", "--bits", "10", "--block-size", "5",
                   "--trials", str(t[1]), "--seed", str(t[0])]
    ),
    st.tuples(st.integers(0, 2**63 - 1)).map(
        lambda t: ["analyze", "link", "--users", "2", "--devices", "2", "--bits", "15",
                   "--block-size", "5", "--seed", str(t[0])]
    ),
    st.tuples(st.integers(0, 2**63 - 1)).map(
        lambda t: ["analyze", "revoke", "--bits", "15", "--seed", str(t[0]),
                   "--attempts", "3", "--block-size", "5"]
    ),
)


class TestDeterminism:
    # the 10^3-case version of this property lives in the acceptance suite
    @settings(max_examples=200, deadline=None)
    @given(DETERMINISTIC_COMMANDS)
    def test_identical_argv_identical_output(self, args):
        first, second = run(args), run(args)
        assert first.exit_code == second.exit_code
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr


class TestParserReuse:
    def test_outcomes_match_a_fresh_interpreter_in_both_orders(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert mismatches(tmp_path) == []

    def test_second_run_builds_no_parser(self, monkeypatch):
        ok(["table", "--block-size", "3"])
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        ok(["table", "--block-size", "3"])
        assert built == []
        cli.build_parser()
        assert built  # the patch does see a parser being built

    def test_import_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: built.append(self) or init(self, *a, **k)\n"
            "import blokit.cli\n"
            "print(len(built))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr

    # In process, an earlier test has usually loaded every module already,
    # so only a fresh interpreter shows what a command imports.
    LOADED = "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'blokit')))\n"

    def test_import_loads_only_the_modules_every_command_needs(self):
        proc = subprocess.run([sys.executable, "-c", "import sys, blokit.cli\n" + self.LOADED],
                              env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "blokit blokit.bits blokit.cli blokit.errors blokit.transform\n"

    def test_match_loads_neither_store_nor_analysis(self, tmp_path):
        feature, template = str(tmp_path / "f.bits"), str(tmp_path / "t.blo")
        ok(["gen", "--bits", "1795", "--seed", "7", "--out", feature])
        ok(["enroll", "--in", feature, "--block-size", "5", "--out", template])
        code = (
            "import sys\n"
            "from blokit import cli\n"
            f"assert cli.main(['match', '--template', {template!r}, '--probe', {feature!r}]) == 0\n"
            + self.LOADED
        )
        proc = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "1.000000\nblokit blokit.bits blokit.cli blokit.errors blokit.matcher blokit.transform\n"
        )

    def test_quick_start_never_loads_pathlib(self, tmp_path):
        # -S: some site .pth files import pathlib before blokit is imported.
        code = (
            "import sys\n"
            "from blokit import cli\n"
            "for argv in (['gen', '--bits', '1795', '--seed', '7', '--out', 'f.bits'],\n"
            "             ['enroll', '--in', 'f.bits', '--block-size', '5', '--out', 't.blo'],\n"
            "             ['attack', 'preimage', '--template', 't.blo', '--selector', '0',\n"
            "              '--out', 'forged.bits'],\n"
            "             ['match', '--template', 't.blo', '--probe', 'forged.bits'],\n"
            "             ['attack', 'verify', '--template', 't.blo', '--probe', 'forged.bits']):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "print('pathlib' in sys.modules)\n"
            "assert cli.main(['match', '--template', './missing.blo', '--probe', 'f.bits']) == 1\n"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=tmp_path,
                              env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "blocks\t359\ntemplate_bits\t1436\npreimages\t2^359\n1.000000\nresult\tvalid\nFalse\n"
        )
        # The error path imports pathlib for the name, and names the file as before.
        assert proc.stderr == "blokit: error: [Errno 2] No such file or directory: 'missing.blo'\n"

    def test_plain_argv_builds_no_parser_in_a_fresh_process(self):
        code = (
            "import argparse, sys\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: built.append(self) or init(self, *a, **k)\n"
            "from blokit import cli\n"
            "counts = []\n"
            "for argv in (['table', '--block-size', '3'], ['table', '--block-size=3']):\n"
            "    assert cli.main(argv) == 0\n"
            "    counts.append(len(built))\n"
            "sys.stderr.write(f'{counts[0]} {counts[1]}')\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        plain, not_plain = map(int, proc.stderr.split())
        assert plain == 0
        assert not_plain > 0  # the patch does see argparse build the tree


def leaf_commands(parser, words=()):
    """(command words, parser) for every leaf command under ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return [leaf for word, child in action.choices.items()
                    for leaf in leaf_commands(child, (*words, word))]
    return [(list(words), parser)]


LEAVES = leaf_commands(cli.build_parser())
OPTION_STRINGS = sorted({s for _, p in LEAVES for a in p._actions for s in a.option_strings})

# Tokens the tables must decline, or read exactly as argparse does, wherever they land.
ODD_TOKENS = st.sampled_from([
    "", "-", "--", "-h", "--help", "-5", "-1.5", "--bogus", "1" * 5000, "-" + "1" * 5000,
    "bogus-policy", "zero-pad", "truncate", "a b", " 7", "7 ", "-x y", "nan", "inf", "1e3",
    "0x10", "1_000", "x", "gen", "attack", "=", "--bits=",
])


def plain_value(action):
    """A strategy for values of ``action`` that are their own token and that it accepts."""
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    if action.type is int:
        return st.integers(0, 2**70).map(str)
    if action.type is float:
        return st.floats(0, 1).map(str)
    return st.text(min_size=1, max_size=6).filter(lambda t: not t.startswith("-"))


@st.composite
def plain_argv(draw, words, parser):
    """A plain-form argv for one leaf: its required options, some others, any order."""
    actions = [a for a in parser._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction)]
    groups = {a: g for g in parser._mutually_exclusive_groups for a in g._group_actions}
    chosen = {g: draw(st.sampled_from(g._group_actions)) for g in set(groups.values())
              if g.required or draw(st.booleans())}
    pairs = []
    for action in actions:
        if action in groups:
            if chosen.get(groups[action]) is not action:
                continue
        elif not (action.required or draw(st.booleans())):
            continue
        option = draw(st.sampled_from(action.option_strings))
        pairs.append([option] if action.nargs == 0 else [option, draw(plain_value(action))])
    return list(words) + list(chain(*draw(st.permutations(pairs))))


@st.composite
def cli_argvs(draw):
    """Plain argv for any command, then up to three edits that may leave plain form."""
    words, parser = draw(st.sampled_from(LEAVES))
    argv = draw(plain_argv(words, parser))
    own = [s for a in parser._actions for s in a.option_strings]
    edits = draw(st.integers(0, 3))
    for _ in range(edits):
        at = draw(st.integers(0, len(argv)))
        kind = draw(st.sampled_from(
            ["insert", "replace", "drop", "abbreviate", "equals", "repeat", "option"]))
        option = draw(st.sampled_from(own))
        token = draw(ODD_TOKENS | st.sampled_from(OPTION_STRINGS) | st.text(max_size=4))
        if kind == "insert":
            argv.insert(at, token)
        elif kind == "replace" and at < len(argv):
            argv[at] = token
        elif kind == "drop" and at < len(argv):
            del argv[at]
        elif kind == "abbreviate" and option in argv:
            i = argv.index(option)
            argv[i] = option[: draw(st.integers(1, len(option) - 1))]
        elif kind == "equals" and option in argv and argv.index(option) + 1 < len(argv):
            i = argv.index(option)
            argv[i : i + 2] = [f"{option}={argv[i + 1]}"]
        elif kind == "repeat" and option in argv:
            i = argv.index(option)
            argv[at:at] = argv[i : i + 2]
        elif kind == "option":
            argv[at:at] = [option, token]
    return argv, edits


def argparse_namespace(argv):
    """What the shared parser makes of ``argv``: its Namespace, or None where it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return cli._shared_parser().parse_args(argv)
        except SystemExit:
            return None


def comparable(ns):
    # A float compared by repr, so that nan equals nan.
    return {k: repr(v) if isinstance(v, float) else v for k, v in vars(ns).items()}


def quickstart_commands(workdir):
    """One perfbench quickstart round per feature codec, then the README quick start."""
    commands, t = [], str(workdir / "template.blo")
    for ext in (".bits", ".fbin"):
        f, forged = str(workdir / f"feature{ext}"), str(workdir / f"forged{ext}")
        commands += [
            ["gen", "--bits", "1795", "--seed", "4611686018427387903", "--out", f],
            ["enroll", "--in", f, "--block-size", "5", "--out", t],
            ["attack", "preimage", "--template", t, "--random", "--seed", "12345", "--out", forged],
            ["match", "--template", t, "--probe", forged],
            ["attack", "verify", "--template", t, "--probe", forged],
        ]
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    readme_commands = [shlex.split(line, comments=True)[1:]
                       for line in block.splitlines() if line.startswith("blokit ")]
    assert len(readme_commands) == 4
    return commands + readme_commands


class TestTablePath:
    @settings(max_examples=600, deadline=None)
    @given(cli_argvs())
    def test_tables_give_argparse_namespace_or_decline(self, drawn):
        argv, edits = drawn
        ns, expected = cli._from_tables(argv), argparse_namespace(argv)
        if edits == 0:
            assert ns is not None, argv
        if ns is not None:
            assert expected is not None, argv
            assert comparable(ns) == comparable(expected), argv

    @pytest.mark.parametrize("argv", [
        ["gen", "--bits=40", "--seed", "7", "--out", "f"],
        ["gen", "--bi", "40", "--seed", "7", "--out", "f"],
        ["gen", "--bits", "40", "--seed", "7", "--seed", "8", "--out", "f"],
        ["gen", "--bits", "40", "--seed", "-5", "--out", "f"],
        ["gen", "--bits", "40", "--seed", "7", "--out", "-"],
        ["gen", "--bits", "40", "--seed", "7", "--", "--out", "f"],
        ["gen", "--help"],
        ["analyze", "link", "--users", "2", "--devices", "2", "--block-size", "5",
         "--seed", "1", "--policy", "bogus"],
        ["attack", "preimage", "--template", "t", "--random", "--selector", "1"],
        ["attack", "preimage", "--template", "t"],
        ["gen", "--bits", "1" * 5000, "--seed", "7", "--out", "f"],
        ["gen", 40],
        ("table", "--block-size", "5", b"x"),
        None,
    ], ids=repr)
    def test_tables_decline_every_other_form(self, argv):
        assert cli._from_tables(argv) is None

    def test_quickstart_commands_never_reach_argparse(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        calls = []
        parse_args = cli._Parser.parse_args

        def counting_parse_args(self, *args, **kwargs):
            calls.append(args)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "parse_args", counting_parse_args)
        for args in quickstart_commands(tmp_path):
            ok(args)
        assert calls == []
        ok(["table", "--block-size=3"])
        assert len(calls) == 1  # the patch does see argparse
