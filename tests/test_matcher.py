import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from blokit import (
    BitString,
    FeatureVector,
    IncomparableTemplatesError,
    InvalidArgumentError,
    PaddingPolicy,
    ProtectedTemplate,
    TransformParams,
    forge,
    from_text,
    match_templates,
    random_bits,
    transform,
)

from conftest import block_multiple_features

ZP = TransformParams(5)


def flipped_bit(tpl, index=0):
    data = tpl.data ^ BitString(1 << (tpl.data.length - 1 - index), tpl.data.length)
    return ProtectedTemplate(data, tpl.params, tpl.original_length, tpl.block_count)


class TestMatchTemplates:
    def test_identity_accepts_at_threshold_one(self):
        t = transform(FeatureVector(random_bits(1795, 1)), ZP)
        decision = match_templates(t, t, 1.0)
        assert decision.similarity == 1.0
        assert decision.accepted

    def test_any_forgery_matches_exactly(self):
        t = transform(FeatureVector(random_bits(1795, 2)), ZP)
        forged = forge(t, random_bits(t.block_count, 3))
        decision = match_templates(transform(forged, ZP), t, 1.0)
        assert decision.similarity == 1.0
        assert decision.accepted

    def test_single_flipped_bit_rejects_at_threshold_one(self):
        t = transform(FeatureVector(random_bits(1795, 4)), ZP)
        decision = match_templates(t, flipped_bit(t), 1.0)
        assert not decision.accepted
        assert decision.similarity == 1.0 - 1.0 / 1436

    def test_complement_data_has_zero_similarity(self):
        t = transform(FeatureVector(random_bits(40, 5)), ZP)
        other = ProtectedTemplate(
            t.data.complement(), t.params, t.original_length, t.block_count
        )
        assert match_templates(t, other, 1.0).similarity == 0.0

    def test_symmetric(self):
        a = transform(FeatureVector(random_bits(100, 6)), ZP)
        b = transform(FeatureVector(random_bits(100, 7)), ZP)
        assert match_templates(a, b, 0.5) == match_templates(b, a, 0.5)

    def test_equal_params_in_distinct_objects_match(self):
        fv = FeatureVector(random_bits(1795, 8))
        a, b = transform(fv, TransformParams(5)), transform(fv, TransformParams(5))
        assert a.params is not b.params
        assert match_templates(a, b).accepted

    def test_parameter_mismatch_rejected(self):
        a = transform(FeatureVector(random_bits(105, 1)), TransformParams(5))
        b = transform(FeatureVector(random_bits(105, 1)), TransformParams(7))
        with pytest.raises(IncomparableTemplatesError):
            match_templates(a, b)

    def test_policy_mismatch_rejected(self):
        a = transform(FeatureVector(random_bits(10, 1)), ZP)
        b = transform(
            FeatureVector(random_bits(10, 1)), TransformParams(5, PaddingPolicy.TRUNCATE)
        )
        with pytest.raises(IncomparableTemplatesError):
            match_templates(a, b)

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
    def test_threshold_error_comes_before_a_parameter_mismatch(self, threshold):
        a = transform(FeatureVector(random_bits(105, 1)), TransformParams(5))
        b = transform(FeatureVector(random_bits(105, 1)), TransformParams(7))
        with pytest.raises(InvalidArgumentError, match=r"^threshold must lie in \[0, 1\], got "):
            match_templates(a, b, threshold)

    def test_length_mismatch_rejected(self):
        a = transform(FeatureVector(random_bits(10, 1)), ZP)
        b = transform(FeatureVector(random_bits(15, 1)), ZP)
        with pytest.raises(IncomparableTemplatesError):
            match_templates(a, b)

    @pytest.mark.parametrize("threshold", [-0.1, 1.1, 2.0])
    def test_threshold_domain(self, threshold):
        t = transform(FeatureVector(random_bits(10, 1)), ZP)
        with pytest.raises(InvalidArgumentError):
            match_templates(t, t, threshold)

    @settings(max_examples=1000)
    @given(block_multiple_features(), st.data())
    def test_symmetry_and_threshold_monotonicity(self, fv_params, data):
        fv, params = fv_params
        a = transform(fv, params)
        other_value = data.draw(st.integers(0, (1 << a.data.length) - 1))
        b = ProtectedTemplate(
            BitString(other_value, a.data.length), params, a.original_length, a.block_count
        )
        hi = data.draw(st.floats(0.0, 1.0))
        lo = data.draw(st.floats(0.0, hi, allow_nan=False))
        d_hi = match_templates(a, b, hi)
        d_lo = match_templates(a, b, lo)
        assert d_hi.similarity == d_lo.similarity == match_templates(b, a, hi).similarity
        if d_hi.accepted:
            assert d_lo.accepted
        assert d_hi.accepted == (d_hi.similarity >= hi)
