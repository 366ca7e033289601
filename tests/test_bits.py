import re

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from blokit import (
    BitString,
    DimensionError,
    FeatureVector,
    InvalidArgumentError,
    MalformedInputError,
    complement,
    from_text,
    hamming_distance,
    pack,
    random_bits,
    stream_rng,
    to_text,
    unpack,
)
from blokit.bits import (
    read_bits_file,
    read_fbin_file,
    read_feature,
    write_bits_file,
    write_fbin_file,
    write_feature,
)

from conftest import bit_strings


class TestFromText:
    @pytest.mark.parametrize(
        "text,expected,length",
        [
            ("1010", 0b1010, 4),
            ("", 0, 0),
            ("10 01", 0b1001, 4),
            ("1\n0\t1 1", 0b1011, 4),
        ],
    )
    def test_examples(self, text, expected, length):
        bs = from_text(text)
        assert bs.value == expected
        assert bs.length == length

    def test_rejects_other_characters_naming_position(self):
        with pytest.raises(MalformedInputError, match="position 2"):
            from_text("10a1")

    def test_position_counts_whitespace(self):
        with pytest.raises(MalformedInputError, match="position 3"):
            from_text("10 x")

    @given(bit_strings())
    def test_round_trip(self, bs):
        assert from_text(to_text(bs)) == bs


# Whitespace as str.isspace() sees it, beyond ASCII included.
WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2003\u2028\u3000"


class TestFromTextAgainstOracle:
    @pytest.mark.parametrize("space", ["\u3000", "\x1c", "\xa0", "\u2028"])
    def test_unicode_whitespace_is_skipped(self, space):
        assert from_text(f"1{space}0{space}1{space}") == from_text("101")

    @pytest.mark.parametrize(
        "text,position",
        [("1_0", 1), ("+1", 0), ("0b1", 1), ("\u0661", 0), ("10 \u0660", 3), ("1\u30001_", 3)],
    )
    def test_int_syntax_is_rejected_at_its_offset(self, text, position):
        with pytest.raises(MalformedInputError, match=f"position {position}$"):
            from_text(text)

    @settings(max_examples=300)
    @given(st.text(alphabet="01" + WHITESPACE, max_size=300))
    def test_matches_oracle(self, text):
        digits = [int(ch) for ch in text if not ch.isspace()]
        bs = from_text(text)
        assert (bs.length, list(bs)) == (len(digits), digits)

    @settings(max_examples=200)
    @given(
        st.text(alphabet="01" + WHITESPACE, max_size=100),
        st.characters().filter(lambda ch: ch not in "01" and not ch.isspace()),
        st.text(max_size=10),
    )
    def test_first_bad_character_is_named_at_its_offset(self, good, bad, tail):
        with pytest.raises(MalformedInputError, match=f"at position {len(good)}$"):
            from_text(good + bad + tail)


class TestFromBitsAndIter:
    @settings(max_examples=300)
    @given(st.lists(st.sampled_from([0, 1]), max_size=400))
    def test_from_bits_matches_oracle(self, bits):
        bs = BitString.from_bits(iter(bits))
        assert bs.to_text() == "".join(map(str, bits))
        assert list(bs) == bits

    @settings(max_examples=300)
    @given(bit_strings(max_length=400))
    def test_iter_round_trips(self, bs):
        assert [int(ch) for ch in bs.to_text()] == list(bs)
        assert BitString.from_bits(bs) == bs

    @pytest.mark.parametrize("bad", [2, -1, 256, 0.5, "1", None, [1], b"\x01", 1.0, 0.0])
    def test_from_bits_rejects_non_bits(self, bad):
        with pytest.raises(InvalidArgumentError, match=re.escape(f"bit value {bad!r} ")):
            BitString.from_bits([1, 0, bad, 1])

    def test_from_bits_takes_bools(self):
        assert BitString.from_bits([True, False, True]) == from_text("101")


class TestPack:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("10000000", b"\x80"),
            ("1010", b"\xa0"),
            ("111111111", b"\xff\x80"),
            ("", b""),
        ],
    )
    def test_examples(self, text, expected):
        assert pack(from_text(text)) == expected

    @settings(max_examples=1000)
    @given(bit_strings(max_length=200))
    def test_round_trip(self, bs):
        assert unpack(pack(bs), bs.length) == bs

    def test_unpack_rejects_wrong_payload_size(self):
        with pytest.raises(MalformedInputError):
            unpack(b"\x00\x00", 4)


class TestComplement:
    @pytest.mark.parametrize(
        "text,expected",
        [("10010", "01101"), ("0000", "1111"), ("", "")],
    )
    def test_examples(self, text, expected):
        assert complement(from_text(text)) == from_text(expected)

    @given(bit_strings())
    def test_involution(self, bs):
        assert complement(complement(bs)) == bs

    @given(bit_strings())
    def test_distance_to_complement_is_length(self, bs):
        assert hamming_distance(bs, complement(bs)) == bs.length


class TestHammingDistance:
    @pytest.mark.parametrize(
        "x,y,expected",
        [("1010", "1010", 0), ("10010", "01101", 5), ("1010", "1000", 1)],
    )
    def test_examples(self, x, y, expected):
        assert hamming_distance(from_text(x), from_text(y)) == expected

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            hamming_distance(from_text("101"), from_text("1010"))

    @given(bit_strings(), bit_strings())
    def test_symmetric_and_zero_iff_equal(self, x, y):
        if x.length != y.length:
            with pytest.raises(DimensionError):
                hamming_distance(x, y)
            return
        d = hamming_distance(x, y)
        assert d == hamming_distance(y, x)
        assert (d == 0) == (x == y)


class TestRandomBits:
    def test_equal_seeds_equal_outputs(self):
        assert random_bits(8, 42) == random_bits(8, 42)
        assert random_bits(1795, 7) == random_bits(1795, 7)

    def test_different_seeds_differ(self):
        assert random_bits(64, 1) != random_bits(64, 2)

    def test_streams_split_independently(self):
        assert random_bits(64, 1, stream=0) != random_bits(64, 1, stream=1)
        assert random_bits(64, 1, "user/0") != random_bits(64, 1, "user/1")

    def test_zero_length_rejected(self):
        with pytest.raises(InvalidArgumentError):
            random_bits(0, 1)

    def test_empirical_mean_near_half(self):
        # 10^5 bits across 1000 seeds; uniform bits give mean 0.5 +/- 0.01
        ones = sum(random_bits(100, seed).count_ones() for seed in range(1000))
        assert abs(ones / 100_000 - 0.5) < 0.01

    def test_stream_rng_reproducible(self):
        assert stream_rng(3, "x").random() == stream_rng(3, "x").random()


class TestBitStringBasics:
    def test_indexing_is_msb_first(self):
        bs = from_text("100")
        assert (bs[0], bs[1], bs[2]) == (1, 0, 0)
        assert list(bs) == [1, 0, 0]

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            from_text("1")[1]

    def test_concat(self):
        assert from_text("10") + from_text("01") == from_text("1001")

    def test_xor_requires_equal_lengths(self):
        with pytest.raises(DimensionError):
            from_text("10") ^ from_text("101")

    def test_value_must_fit_length(self):
        with pytest.raises(InvalidArgumentError):
            BitString(4, 2)

    def test_feature_vector_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            FeatureVector(BitString(0, 0))


class TestFileCodecs:
    def test_bits_file_round_trip(self, tmp_path):
        bs = random_bits(1795, 9)
        path = tmp_path / "f.bits"
        write_bits_file(path, bs)
        assert read_bits_file(path) == bs

    def test_bits_file_is_text_with_wrapping(self, tmp_path):
        path = tmp_path / "f.bits"
        write_bits_file(path, random_bits(200, 1), wrap=64)
        lines = path.read_text().splitlines()
        assert all(set(line) <= {"0", "1"} for line in lines)
        assert max(len(line) for line in lines) <= 64

    def test_bits_file_bad_character_names_position(self, tmp_path):
        path = tmp_path / "f.bits"
        path.write_text("10102\n")
        with pytest.raises(MalformedInputError, match="position 4"):
            read_bits_file(path)

    def test_fbin_round_trip(self, tmp_path):
        bs = random_bits(1795, 9)
        path = tmp_path / "f.fbin"
        write_fbin_file(path, bs)
        assert read_fbin_file(path) == bs

    def test_fbin_layout(self, tmp_path):
        path = tmp_path / "f.fbin"
        write_fbin_file(path, from_text("1010"))
        assert path.read_bytes() == b"FBV1" + (4).to_bytes(4, "big") + b"\xa0"

    def test_fbin_bad_magic(self, tmp_path):
        path = tmp_path / "f.fbin"
        path.write_bytes(b"XXXX" + (4).to_bytes(4, "big") + b"\xa0")
        with pytest.raises(MalformedInputError):
            read_fbin_file(path)

    def test_read_feature_dispatches_on_suffix(self, tmp_path):
        fv = FeatureVector(random_bits(37, 2))
        for name in ("f.bits", "f.fbin"):
            write_feature(tmp_path / name, fv)
            assert read_feature(tmp_path / name).data == fv.data
