import subprocess
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from blokit import cli, from_text, read_template_file
from blokit.bits import read_bits_file
from blokit.cli import run

from conftest import TABLE_B5_FIXTURE
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


class TestUsageContract:
    @pytest.mark.parametrize("target", HELP_TARGETS, ids=lambda t: " ".join(t) or "root")
    def test_help_everywhere(self, target):
        outcome = run(target + ["--help"])
        assert outcome.exit_code == 0
        assert "usage" in outcome.stdout.lower()

    @pytest.mark.parametrize(
        "args",
        [
            [],
            ["frobnicate"],
            ["gen"],
            ["gen", "--bits", "10"],
            ["gen", "--bits", "x", "--seed", "1", "--out", "f"],
            ["attack"],
            ["analyze"],
            ["store"],
            ["match", "--template"],
        ],
    )
    def test_usage_errors_exit_1(self, args):
        outcome = run(args)
        assert outcome.exit_code == 1
        assert outcome.stderr

    def test_missing_file_is_error(self, tmp_path):
        outcome = run(["enroll", "--in", str(tmp_path / "nope.bits"),
                       "--block-size", "5", "--out", str(tmp_path / "t.blo")])
        assert outcome.exit_code == 1

    def test_even_block_size_reports_error(self, tmp_path):
        f = tmp_path / "f.bits"
        f.write_text("101010\n")
        outcome = run(["enroll", "--in", str(f), "--block-size", "30",
                       "--out", str(tmp_path / "t.blo")])
        assert outcome.exit_code == 1
        assert "odd" in outcome.stderr


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
