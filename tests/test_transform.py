import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from blokit import (
    BitString,
    FeatureVector,
    InvalidArgumentError,
    MalformedInputError,
    PaddingPolicy,
    ProtectedTemplate,
    TransformParams,
    complement,
    enumerate_preimages,
    forge,
    from_text,
    random_bits,
    read_template_file,
    segment,
    transform,
    transform_block,
    write_template_file,
)
from blokit.transform import (
    _header_params,
    _kernel_masks,
    decode_template,
    encode_template,
    transform_value,
)

from conftest import (
    bit_strings,
    block_multiple_features,
    every_odd_block_size,
    kernel_block_counts,
    kernel_features,
    oracle_forge,
    oracle_transform,
    transform_params,
)

ZP = TransformParams(5)
TR = TransformParams(5, PaddingPolicy.TRUNCATE)


class TestParams:
    @pytest.mark.parametrize("size", [4, 30, 2])
    def test_even_sizes_rejected(self, size):
        with pytest.raises(InvalidArgumentError):
            TransformParams(size)

    @pytest.mark.parametrize("size", [1, -3, 0])
    def test_too_small_rejected(self, size):
        with pytest.raises(InvalidArgumentError):
            TransformParams(size)

    @pytest.mark.parametrize("size,pivot", [(3, 1), (5, 2), (7, 3)])
    def test_pivot_is_middle(self, size, pivot):
        assert TransformParams(size).pivot_index == pivot


class TestSegment:
    def test_1795_bits_gives_359_blocks_either_policy(self):
        fv = FeatureVector(random_bits(1795, 1))
        for params in (ZP, TR):
            blocks = segment(fv, params)
            assert len(blocks) == 359
            assert all(b.length == 5 for b in blocks)

    def test_zero_pad_extends_with_zero_bits(self):
        assert segment(from_text("1011001"), ZP) == [from_text("10110"), from_text("01000")]

    def test_truncate_drops_trailing_bits(self):
        assert segment(from_text("1011001"), TR) == [from_text("10110")]

    def test_blocks_preserve_order_and_concatenate_back(self):
        fv = random_bits(40, 3)
        blocks = segment(fv, ZP)
        rebuilt = blocks[0]
        for blk in blocks[1:]:
            rebuilt = rebuilt + blk
        assert rebuilt == fv

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidArgumentError):
            segment(BitString(0, 0), ZP)

    def test_truncate_rejects_short_input(self):
        with pytest.raises(InvalidArgumentError):
            segment(from_text("1011"), TR)


class TestTransformBlock:
    @pytest.mark.parametrize(
        "block,expected",
        [
            ("10010", "1010"),
            ("01101", "1010"),
            ("00000", "0000"),
            ("101", "11"),
        ],
    )
    def test_examples(self, block, expected):
        assert transform_block(from_text(block)) == from_text(expected)

    @pytest.mark.parametrize("block", ["1010", "1", ""])
    def test_bad_lengths_rejected(self, block):
        with pytest.raises(InvalidArgumentError):
            transform_block(from_text(block))

    def test_matches_bitwise_definition(self):
        # independent oracle: XOR every non-pivot bit with the middle bit
        for b in (3, 5, 7):
            pivot = (b - 1) // 2
            for value in range(1 << b):
                block = BitString(value, b)
                expected = BitString.from_bits(
                    block[i] ^ block[pivot] for i in range(b) if i != pivot
                )
                assert transform_block(block) == expected

    def test_all_32_blocks_cover_16_outputs_twice(self):
        fibers = {}
        for value in range(32):
            out = transform_block(BitString(value, 5))
            fibers.setdefault(out, []).append(BitString(value, 5))
        assert len(fibers) == 16
        assert all(len(pair) == 2 for pair in fibers.values())
        for out, (x, y) in fibers.items():
            assert x == complement(y)


class TestTransform:
    def test_1795_bits_gives_1436_bit_template(self):
        tpl = transform(FeatureVector(random_bits(1795, 7)), ZP)
        assert tpl.data.length == 1436
        assert tpl.block_count == 359
        assert tpl.original_length == 1795

    def test_two_block_worked_example(self):
        assert transform(from_text("1001010000"), ZP).data == from_text("10101000")

    def test_all_zero_input(self):
        assert transform(from_text("0" * 10), ZP).data == from_text("0" * 8)

    def test_deterministic(self):
        fv = FeatureVector(random_bits(1795, 3))
        assert transform(fv, ZP) == transform(fv, ZP)

    @settings(max_examples=300)
    @given(transform_params(), bit_strings(min_length=1, max_length=80))
    def test_length_law(self, params, bs):
        b = params.block_size
        if params.padding is PaddingPolicy.TRUNCATE and bs.length < b:
            with pytest.raises(InvalidArgumentError):
                transform(bs, params)
            return
        tpl = transform(bs, params)
        assert tpl.data.length == tpl.block_count * (b - 1)
        if bs.length % b == 0:
            assert tpl.data.length == bs.length * (b - 1) // b

    @settings(max_examples=1000)
    @given(block_multiple_features())
    def test_complement_invariance(self, fv_params):
        fv, params = fv_params
        assert transform(complement(fv.data), params) == transform(fv, params)

    @settings(max_examples=200)
    @given(block_multiple_features(max_blocks=6))
    def test_fiber_membership(self, fv_params):
        fv, params = fv_params
        tpl = transform(fv, params)
        preimages = {p.data for p in enumerate_preimages(tpl, 1 << tpl.block_count)}
        assert fv.data in preimages

    def test_zero_padded_input_is_in_its_own_fiber(self):
        fv = from_text("1011001")
        tpl = transform(fv, ZP)
        padded = from_text("1011001000")
        assert padded in {p.data for p in enumerate_preimages(tpl, 4)}


class TestKernelAgainstOracle:
    """The kernel pair (three compaction rounds, then the byte pass over
    8-block groups) against the bitwise definition."""

    @settings(max_examples=400, deadline=None)
    @given(kernel_features())
    def test_transform_matches_oracle(self, bs_params):
        bs, params = bs_params
        tpl = transform(bs, params)
        expected = oracle_transform(bs.to_text(), params.block_size, params.padding)
        assert tpl.data.to_text() == expected
        assert tpl.original_length == bs.length

    @settings(max_examples=300, deadline=None)
    @given(every_odd_block_size, kernel_block_counts, st.data())
    def test_transform_is_linear_over_xor(self, b, nblocks, data):
        # Every output bit is x_i ^ x_pivot; the census splits inputs on this.
        a, c = (data.draw(st.integers(0, (1 << nblocks * b) - 1)) for _ in range(2))
        expected = transform_value(a, nblocks, b) ^ transform_value(c, nblocks, b)
        assert transform_value(a ^ c, nblocks, b) == expected

    @settings(max_examples=200, deadline=None)
    @given(kernel_features())
    def test_segment_matches_oracle(self, bs_params):
        bs, params = bs_params
        b, text = params.block_size, bs.to_text()
        if params.padding is PaddingPolicy.ZERO_PAD:
            text += "0" * (-len(text) % b)
        else:
            text = text[: len(text) - len(text) % b]
        expected = [text[i : i + b] for i in range(0, len(text), b)]
        assert [blk.to_text() for blk in segment(bs, params)] == expected

    @settings(max_examples=300)
    @given(every_odd_block_size, st.data())
    def test_transform_block_matches_oracle(self, b, data):
        block = BitString(data.draw(st.integers(0, (1 << b) - 1)), b)
        assert transform_block(block).to_text() == oracle_transform(block.to_text(), b)

    @pytest.mark.parametrize("padding", list(PaddingPolicy))
    def test_large_feature_matches_oracle(self, padding):
        bs = random_bits(20_003, 11)
        for b in (3, 5, 17):
            tpl = transform(bs, TransformParams(b, padding))
            assert tpl.data.to_text() == oracle_transform(bs.to_text(), b, padding)

    @pytest.mark.parametrize("b", [5, 17])
    def test_2_to_the_18_bits_match_oracles(self, b):
        bs = random_bits(262_140, b)
        tpl = transform(bs, TransformParams(b))
        assert tpl.data.to_text() == oracle_transform(bs.to_text(), b)
        selector = random_bits(tpl.block_count, b + 1)
        forged = forge(tpl, selector)
        assert forged.data.to_text() == oracle_forge(tpl.data.to_text(), b, selector.to_text())

    @pytest.mark.parametrize("b", range(3, 19, 2))
    def test_every_count_through_two_groups_matches_oracles(self, b):
        # Up to 8 blocks skip the byte pass; 9 blocks is the first count that needs it.
        for nblocks in range(1, 18):
            bs = random_bits(nblocks * b, nblocks)
            tpl = transform(bs, TransformParams(b))
            assert tpl.data.to_text() == oracle_transform(bs.to_text(), b)
            selector = random_bits(nblocks, b)
            forged = forge(tpl, selector)
            assert forged.data.to_text() == oracle_forge(tpl.data.to_text(), b, selector.to_text())

    def test_cold_mask_cache_matches_oracles(self):
        _kernel_masks.cache_clear()
        bs = random_bits(20_003, 16)
        tpl = transform(bs, TransformParams(7))
        assert tpl.data.to_text() == oracle_transform(bs.to_text(), 7)
        selector = random_bits(tpl.block_count, 17)
        forged = forge(tpl, selector)
        assert forged.data.to_text() == oracle_forge(tpl.data.to_text(), 7, selector.to_text())
        # The transform built the masks cold; the forge of the same shape reused them.
        assert (_kernel_masks.cache_info().misses, _kernel_masks.cache_info().hits) == (1, 1)


class TestProtectedTemplateInvariants:
    def test_data_length_checked(self):
        with pytest.raises(InvalidArgumentError):
            ProtectedTemplate(BitString(0, 7), ZP, original_length=10, block_count=2)

    def test_block_count_policy_consistency_checked(self):
        with pytest.raises(InvalidArgumentError):
            ProtectedTemplate(BitString(0, 8), ZP, original_length=20, block_count=2)

    def test_at_least_one_block(self):
        with pytest.raises(InvalidArgumentError):
            ProtectedTemplate(BitString(0, 0), ZP, original_length=0, block_count=0)


class TestTemplateFile:
    def test_round_trip(self, tmp_path):
        tpl = transform(FeatureVector(random_bits(1795, 5)), ZP)
        path = tmp_path / "t.blo"
        write_template_file(path, tpl)
        assert read_template_file(path) == tpl

    def test_round_trip_truncate_policy(self, tmp_path):
        tpl = transform(FeatureVector(random_bits(23, 5)), TR)
        path = tmp_path / "t.blo"
        write_template_file(path, tpl)
        loaded = read_template_file(path)
        assert loaded == tpl
        assert loaded.params.padding is PaddingPolicy.TRUNCATE

    def test_header_layout(self, tmp_path):
        tpl = transform(from_text("1001010000"), ZP)
        path = tmp_path / "t.blo"
        write_template_file(path, tpl)
        raw = path.read_bytes()
        assert raw[:4] == b"BLO1"
        assert raw[4] == 1
        assert raw[5] == 0
        assert int.from_bytes(raw[6:8], "big") == 5
        assert int.from_bytes(raw[8:12], "big") == 10
        assert int.from_bytes(raw[12:16], "big") == 8
        assert raw[16:] == tpl.data.pack()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda raw: b"XLO1" + raw[4:],
            lambda raw: raw[:4] + b"\x02" + raw[5:],
            lambda raw: raw[:5] + b"\x07" + raw[6:],
            lambda raw: raw[:16],
            lambda raw: raw[:8],
        ],
    )
    def test_corrupt_files_rejected(self, tmp_path, mutate):
        tpl = transform(FeatureVector(random_bits(40, 5)), ZP)
        path = tmp_path / "t.blo"
        write_template_file(path, tpl)
        path.write_bytes(mutate(path.read_bytes()))
        with pytest.raises(MalformedInputError):
            read_template_file(path)


def blo_header(block_size, policy_byte=0, original_length=8, data_bits=8):
    """A '.blo' header with the given fields and a zero payload of ``data_bits`` bits."""
    return (b"BLO1" + bytes([1, policy_byte]) + block_size.to_bytes(2, "big")
            + original_length.to_bytes(4, "big") + data_bits.to_bytes(4, "big")
            + bytes(-(-data_bits // 8)))


class TestHeaderParams:
    """decode_template shares one TransformParams per (block size, policy byte)."""

    @pytest.mark.parametrize("policy", list(PaddingPolicy))
    @pytest.mark.parametrize("b", range(3, 18, 2))
    def test_every_odd_block_size_decodes_to_its_params(self, b, policy):
        tpl = transform(FeatureVector(random_bits(3 * b + 1, b)), TransformParams(b, policy))
        first = decode_template(encode_template(tpl), "t.blo")
        again = decode_template(encode_template(tpl), "t.blo")
        assert first == again == tpl
        assert first.params == TransformParams(b, policy)
        assert first.params.padding is policy
        assert again.params is first.params

    @pytest.mark.parametrize(
        "bad, neighbour, error",
        [
            (0, 3, "block size must be at least 3, got 0"),
            (1, 3, "block size must be at least 3, got 1"),
            (2, 3, "block size must be at least 3, got 2"),
            (4, 5, "block size must be odd, got 4"),
            (65534, 65533, "block size must be odd, got 65534"),
        ],
    )
    def test_invalid_block_size_raises_before_and_after_a_valid_decode(self, bad, neighbour, error):
        expected = f"d1/u.blo: {error}"
        for policy_byte in (0, 1):
            raw = blo_header(bad, policy_byte)
            with pytest.raises(MalformedInputError) as before:
                decode_template(raw, "d1/u.blo")
            tpl = transform(FeatureVector(random_bits(neighbour, 1)), TransformParams(neighbour))
            assert decode_template(encode_template(tpl), "d1/v.blo") == tpl
            with pytest.raises(MalformedInputError) as after:
                decode_template(raw, "d1/u.blo")
            assert str(before.value) == str(after.value) == expected

    def test_many_distinct_headers_keep_the_cache_within_its_bound(self):
        maxsize = _header_params.cache_info().maxsize
        assert maxsize is not None
        for b in range(3, 200, 2):
            for policy_byte in (0, 1):
                tpl = decode_template(blo_header(b, policy_byte, b, b - 1), "t.blo")
                assert tpl.params == TransformParams(b, list(PaddingPolicy)[policy_byte])
                assert _header_params.cache_info().currsize <= maxsize
