import json
import re
import tracemalloc

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from blokit import (
    AnalysisReport,
    BitString,
    CapacityError,
    FeatureVector,
    InvalidArgumentError,
    PaddingPolicy,
    TransformParams,
    census_fibers,
    complement,
    fiber_census,
    from_text,
    linkability_study,
    random_bits,
    recovery_probability,
    revocability_check,
    transform,
)
from blokit import analysis

from conftest import (
    oracle_link_rates,
    oracle_recovery_successes,
    oracle_transform,
    padding_policies,
)

ZP = TransformParams(5)


def census_from_fibers(bit_length, block_size):
    """fiber_census's findings and verdict, derived from census_fibers' member lists."""
    fibers = census_fibers(bit_length, block_size)
    sizes = {len(members) for members in fibers.values()}
    fiber_size = max(sizes)
    findings = {
        "inputs": 1 << bit_length,
        "blocks": bit_length // block_size,
        "distinct_templates": len(fibers),
        "fiber_size": fiber_size,
        "fiber_size_uniform": len(sizes) == 1,
        "impostors_per_template": fiber_size - 1,
    }
    verdict = (
        f"{len(fibers)} distinct templates, each reached by exactly {fiber_size} "
        f"inputs; {fiber_size - 1} impostor vectors per template match exactly"
    )
    return findings, verdict


class TestFiberCensus:
    @pytest.mark.parametrize(
        "bits,block,distinct,fiber",
        [
            (5, 5, 16, 2),
            (10, 5, 256, 4),
            (15, 5, 4096, 8),
            (9, 3, 64, 8),
            (21, 21, 1 << 20, 2),
            (21, 7, 1 << 18, 8),
        ],
    )
    def test_exhaustive_counts(self, bits, block, distinct, fiber):
        report = fiber_census(bits, block)
        f = report.findings
        assert f["distinct_templates"] == distinct
        assert f["fiber_size"] == fiber
        assert f["fiber_size_uniform"] is True
        assert f["impostors_per_template"] == fiber - 1
        assert f["distinct_templates"] * f["fiber_size"] == 1 << bits

    def test_partition_is_exact_at_10_5(self):
        fibers = census_fibers(10, 5)
        assert sum(len(m) for m in fibers.values()) == 1 << 10
        seen = set()
        for members in fibers.values():
            assert len(members) == 4
            seen.update(members)
        assert seen == set(range(1 << 10))

    def test_fibers_agree_with_public_transform(self):
        # independent check of the census grouping through the public API
        fibers = census_fibers(10, 5)
        for tpl_value, members in list(fibers.items())[:32]:
            for member in members:
                tpl = transform(BitString(member, 10), ZP)
                assert tpl.data == BitString(tpl_value, 8)

    def test_capacity_bound(self):
        with pytest.raises(CapacityError):
            fiber_census(25, 5)

    def test_exhaustive_at_the_bound(self):
        f = fiber_census(24, 3).findings
        assert f["inputs"] == 16777216
        assert f["blocks"] == 8
        assert f["distinct_templates"] == 65536
        assert f["fiber_size"] == 256
        assert f["fiber_size_uniform"] is True

    @pytest.mark.parametrize(
        "bits,block",
        # (13, 13) adds the largest single block that census_fibers lists quickly.
        [(bits, b) for b in range(3, 12, 2) for bits in range(b, 19, b)] + [(13, 13)],
    )
    def test_counts_equal_member_lists(self, bits, block):
        report = fiber_census(bits, block)
        assert (report.findings, report.verdict) == census_from_fibers(bits, block)

    @pytest.mark.parametrize(
        "bits,block",
        [(bits, b) for b in range(3, 12, 2) for bits in range(b, 16, b)] + [(13, 13)],
    )
    def test_fibers_equal_the_text_oracle(self, bits, block):
        # Inputs grouped by the oracle's template, in ascending input order.
        expected = {}
        for value in range(1 << bits):
            tpl = int(oracle_transform(format(value, f"0{bits}b"), block), 2)
            expected.setdefault(tpl, []).append(value)
        assert list(census_fibers(bits, block).items()) == list(expected.items())

    def test_single_block_without_a_kernel_call_per_input(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        kernel = analysis.transform_value
        monkeypatch.setattr(analysis, "transform_value", counted)
        report = fiber_census(13, 13)
        assert report.findings["distinct_templates"] == 1 << 12
        assert len(calls) < 1 << 13

    @pytest.mark.parametrize(
        "bits,block,error,message",
        [
            (26, 4, InvalidArgumentError, "odd"),
            (26, 1, InvalidArgumentError, "at least 3"),
            (26, 5, CapacityError, "bound"),
            (27, 3, CapacityError, "bound"),
            (12, 5, InvalidArgumentError, "multiple"),
            (3, 5, InvalidArgumentError, "multiple"),
        ],
    )
    @pytest.mark.parametrize("study", [fiber_census, census_fibers])
    def test_argument_errors_in_order(self, study, bits, block, error, message):
        with pytest.raises(error, match=message):
            study(bits, block)

    def test_indivisible_length_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fiber_census(12, 5)


class TestRecoveryProbability:
    def test_single_block_analytic_rate(self):
        report = recovery_probability(5, 5, trials=200, seed=1)
        assert report.findings["analytic_rate"] == 0.5
        assert report.findings["analytic_rate_symbolic"] == "2^-1"

    def test_two_blocks_converges_to_quarter(self):
        report = recovery_probability(10, 5, trials=20_000, seed=2)
        f = report.findings
        assert f["analytic_rate"] == 0.25
        assert abs(f["empirical_rate"] - 0.25) <= 3 * f["std_error"]
        assert f["within_3_std_errors"] is True

    def test_deterministic_given_seed(self):
        a = recovery_probability(10, 5, trials=500, seed=9)
        b = recovery_probability(10, 5, trials=500, seed=9)
        assert a.findings == b.findings

    def test_seed_changes_trials(self):
        a = recovery_probability(10, 5, trials=500, seed=1)
        b = recovery_probability(10, 5, trials=500, seed=2)
        assert a.findings["successes"] != b.findings["successes"]

    def test_indivisible_length_rejected(self):
        with pytest.raises(InvalidArgumentError):
            recovery_probability(12, 5, trials=10, seed=1)

    def test_exhaustive_oracle_at_20_bits(self):
        # every fiber at (20, 5) has 16 members, so recovery rate is exactly 1/16
        report = recovery_probability(20, 5, trials=20_000, seed=3)
        f = report.findings
        assert f["analytic_rate"] == 0.0625
        assert abs(f["empirical_rate"] - 0.0625) <= 3 * f["std_error"]


class TestRecoveryAgainstOracle:
    @pytest.mark.parametrize("bits,block", [(5, 5), (10, 5), (20, 5), (21, 7)])
    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    def test_chunk_boundaries(self, bits, block, offset):
        chunk = analysis.RECOVERY_CHUNK_BITS // bits
        trials = 1 if offset is None else chunk + offset
        report = recovery_probability(bits, block, trials=trials, seed=trials)
        assert report.findings["successes"] == oracle_recovery_successes(
            bits, block, trials, trials
        )

    @pytest.mark.parametrize("seed", [0, -7, 1 << 70])
    def test_one_trial_per_chunk_above_the_chunk_size(self, seed):
        bits = 5 * (analysis.RECOVERY_CHUNK_BITS // 5 + 1)
        assert bits > analysis.RECOVERY_CHUNK_BITS
        report = recovery_probability(bits, 5, trials=3, seed=seed)
        assert report.findings["successes"] == oracle_recovery_successes(bits, 5, 3, seed)

    def test_memory_stays_within_a_chunk(self):
        # 20,000 trials of 10 bits would hold about 2 MiB in one chunk of 2^16 bits.
        tracemalloc.start()
        try:
            recovery_probability(10, 5, trials=20_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    @pytest.mark.parametrize("chunk_bits", [1, 10, 25, 64])
    def test_small_chunks(self, monkeypatch, chunk_bits):
        # chunks of one or a few trials, where successes are common
        monkeypatch.setattr(analysis, "RECOVERY_CHUNK_BITS", chunk_bits)
        report = recovery_probability(10, 5, trials=301, seed=chunk_bits)
        assert report.findings["successes"] == oracle_recovery_successes(10, 5, 301, chunk_bits)


class TestLinkabilityStudy:
    def test_blo_templates_always_link(self):
        for seed in (1, 2, 3):
            report = linkability_study(10, 5, ZP, seed=seed, feature_bits=100)
            assert report.findings["link_rate"] == 1.0

    def test_pair_counts(self):
        report = linkability_study(10, 5, ZP, seed=1, feature_bits=50)
        assert report.findings["same_user_pairs"] == 10 * 10
        assert report.findings["cross_user_pairs"] == 5 * 45

    def test_identical_users_collide(self):
        fv = FeatureVector(random_bits(50, 4))
        report = linkability_study(2, 2, ZP, seed=0, features=[fv, fv])
        assert report.findings["cross_user_collision_rate"] == 1.0

    def test_distinct_random_users_do_not_collide(self):
        report = linkability_study(10, 5, ZP, seed=5, feature_bits=1795)
        assert report.findings["cross_user_collision_rate"] == 0.0

    def test_keyed_baseline_breaks_linkage(self):
        report = linkability_study(
            10, 5, ZP, seed=6, keyed_baseline=True, feature_bits=1795
        )
        assert report.findings["template_bits"] == 1436
        assert report.findings["link_rate"] == 1.0
        assert report.findings["keyed_link_rate"] == 0.0
        assert "control" in report.findings["keyed_baseline_note"]

    def test_degenerate_counts_rejected(self):
        with pytest.raises(InvalidArgumentError):
            linkability_study(1, 5, ZP, seed=1)
        with pytest.raises(InvalidArgumentError):
            linkability_study(5, 1, ZP, seed=1)

    def test_features_length_checked(self):
        with pytest.raises(InvalidArgumentError):
            linkability_study(3, 2, ZP, seed=1, features=[FeatureVector(random_bits(10, 1))])


@st.composite
def link_studies(draw):
    """Small linkability studies whose few-bit templates collide across users.

    Half the draws enroll synthetic users, half a pool of at most three
    features shared out among the users (duplicate enrollees).
    """
    b = draw(st.sampled_from([3, 5, 7]))
    policy = draw(padding_policies)
    bits = draw(st.integers(b if policy is PaddingPolicy.TRUNCATE else 3, 8))
    users, devices = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    seed = draw(st.integers(0, 2**64 - 1))
    features = None
    if draw(st.booleans()):
        pool = draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=1, max_size=3))
        values = draw(st.lists(st.sampled_from(pool), min_size=users, max_size=users))
        features = [FeatureVector(BitString(v, bits)) for v in values]
    return users, devices, TransformParams(b, policy), seed, bits, features


class TestLinkabilityAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(study=link_studies(), keyed=st.booleans())
    def test_rates_equal_the_pairwise_oracle(self, study, keyed):
        users, devices, params, seed, bits, features = study
        report = linkability_study(
            users, devices, params, seed, keyed_baseline=keyed, feature_bits=bits, features=features
        )
        if features is None:
            features = [FeatureVector(random_bits(bits, seed, f"user/{u}")) for u in range(users)]
        link, collision, keyed_link = oracle_link_rates(features, devices, seed, params, keyed)
        assert report.findings["link_rate"] == link
        assert report.findings["cross_user_collision_rate"] == collision
        assert report.findings.get("keyed_link_rate") == keyed_link

    def test_comparisons_grow_with_users_times_devices(self, monkeypatch):
        # Payload classes are counted, not pairs compared: 60 users sharing
        # 3 features on 40 keyed devices would make 164,400 pairwise comparisons.
        users, devices = 60, 40
        shared = [FeatureVector(random_bits(100, s)) for s in range(3)]
        features = [shared[u % 3] for u in range(users)]
        comparisons = 0
        equal = BitString.__eq__

        def counted(self, other):
            nonlocal comparisons
            comparisons += 1
            return equal(self, other)

        monkeypatch.setattr(BitString, "__eq__", counted)
        report = linkability_study(
            users, devices, ZP, seed=1, keyed_baseline=True, features=features
        )
        assert comparisons <= 2 * users * devices
        assert report.findings["cross_user_collision_rate"] == 3 * 190 / 1770


class Drawn(Exception):
    """Raised by a stand-in for the studies' draws, so no size allocates."""


class TestSyntheticSizeBound:
    U32_LIMIT = (1 << 32) - 1  # a multiple of 3, 5, 15 and 17
    PAST = (1 << 32) + 4  # a multiple of 5

    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []

        def drawn(*args):
            calls.append(args)
            raise Drawn

        monkeypatch.setattr(analysis, "stream_draws", drawn)
        monkeypatch.setattr(analysis, "random_bits", drawn)
        return calls

    @pytest.mark.parametrize("block", [3, 5, 15, 17])
    def test_recovery_reaches_the_draw_at_the_bound(self, draws, block):
        with pytest.raises(Drawn):
            recovery_probability(self.U32_LIMIT, block, trials=1, seed=1)
        assert draws[0][1:] == (["trial/0"], (self.U32_LIMIT, self.U32_LIMIT // block))

    def test_recovery_refused_past_the_bound(self, draws):
        message = f"{self.PAST}-bit feature exceeds the 2^32 - 1 bit bound"
        with pytest.raises(CapacityError, match=f"^{re.escape(message)}$"):
            recovery_probability(self.PAST, 5, trials=1, seed=1)
        assert draws == []

    @pytest.mark.parametrize(
        "bits,block,trials,message",
        [
            (PAST, 4, 1, "block size must be odd"),
            (PAST + 1, 5, 1, "positive multiple of the block size"),
            (PAST, 5, 0, "trials must be at least 1"),
        ],
    )
    def test_recovery_argument_checks_come_first(self, draws, bits, block, trials, message):
        with pytest.raises(InvalidArgumentError, match=message):
            recovery_probability(bits, block, trials=trials, seed=1)
        assert draws == []

    def test_linkability_reaches_the_draw_at_the_bound(self, draws):
        with pytest.raises(Drawn):
            linkability_study(2, 2, ZP, seed=1, feature_bits=self.U32_LIMIT)
        assert draws == [(self.U32_LIMIT, 1, "user/0")]

    def test_linkability_refused_past_the_bound(self, draws):
        message = f"{self.PAST}-bit feature exceeds the 2^32 - 1 bit bound"
        with pytest.raises(CapacityError, match=f"^{re.escape(message)}$"):
            linkability_study(2, 2, ZP, seed=1, feature_bits=self.PAST)
        with pytest.raises(InvalidArgumentError, match="at least 2 users"):
            linkability_study(1, 2, ZP, seed=1, feature_bits=self.PAST)
        assert draws == []


class TestRevocabilityCheck:
    def test_repeated_enrollment_is_constant(self):
        fv = FeatureVector(random_bits(1795, 8))
        report = revocability_check(fv, ZP, attempts=100)
        assert report.findings["distinct_templates"] == 1

    def test_one_flipped_non_pivot_bit_changes_template(self):
        fv = from_text("10010")
        other = from_text("00010")  # flips b1, a non-pivot position
        t1 = transform(fv, ZP)
        t2 = transform(other, ZP)
        assert t1.data != t2.data

    def test_complement_feature_gives_same_template(self):
        fv = FeatureVector(random_bits(25, 9))
        r1 = revocability_check(fv, ZP, attempts=2)
        r2 = revocability_check(FeatureVector(complement(fv.data)), ZP, attempts=2)
        assert r1.findings == r2.findings
        assert transform(complement(fv.data), ZP) == transform(fv, ZP)

    def test_needs_two_attempts(self):
        with pytest.raises(InvalidArgumentError):
            revocability_check(FeatureVector(random_bits(10, 1)), ZP, attempts=1)


class TestReportRendering:
    def test_text_is_tab_separated_key_values(self):
        report = fiber_census(10, 5)
        lines = report.to_text().splitlines()
        assert lines[0] == "kind\tcensus"
        assert lines[-1].startswith("verdict\t")
        assert all(len(line.split("\t")) == 2 for line in lines)

    def test_json_round_trips_same_content(self):
        report = recovery_probability(10, 5, trials=100, seed=1)
        doc = json.loads(report.to_json())
        assert doc["kind"] == "recovery"
        assert doc["parameters"] == report.parameters
        assert doc["findings"] == report.findings
        assert doc["verdict"] == report.verdict

    @pytest.mark.parametrize(
        "make",
        [lambda: linkability_study(3, 2, ZP, seed=1, keyed_baseline=True), lambda: fiber_census(10, 5)],
        ids=["keyed-link", "census"],
    )
    def test_json_bytes_keep_field_order_and_indent(self, make):
        report = make()
        expected = json.dumps(
            {"kind": report.kind, "parameters": report.parameters,
             "findings": report.findings, "verdict": report.verdict},
            indent=2,
        )
        assert report.to_json() == expected

    def test_verdict_values_appear_in_findings(self):
        report = revocability_check(FeatureVector(random_bits(10, 1)), ZP, attempts=5)
        assert str(report.findings["distinct_templates"]) in report.verdict

    def test_booleans_render_lowercase(self):
        report = AnalysisReport(kind="x", findings={"flag": True}, verdict="v")
        assert "finding.flag\ttrue" in report.to_text()
