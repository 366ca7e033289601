import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from blokit import (
    BitString,
    DimensionError,
    FeatureVector,
    InvalidArgumentError,
    PreimageCount,
    build_table,
    complement,
    count_preimages,
    enumerate_preimages,
    forge,
    from_text,
    invert_block,
    random_bits,
    transform,
    transform_block,
    TransformParams,
)

from conftest import (
    TABLE_B5_FIXTURE,
    block_multiple_features,
    every_odd_block_size,
    kernel_features,
    oracle_forge,
)

ZP = TransformParams(5)


def tpl_of(text, params=ZP):
    return transform(from_text(text), params)


# worked single-block template 1010 and two-block template 10101000
TPL_1010 = tpl_of("10010")
TPL_10101000 = tpl_of("1001010000")


class TestInvertBlock:
    @pytest.mark.parametrize(
        "out,pivot,expected",
        [
            ("1010", 0, "10010"),
            ("1010", 1, "01101"),
            ("0000", 0, "00000"),
            ("11", 1, "010"),
        ],
    )
    def test_examples(self, out, pivot, expected):
        assert invert_block(from_text(out), pivot) == from_text(expected)

    @pytest.mark.parametrize("out", ["101", "1", ""])
    def test_bad_lengths_rejected(self, out):
        with pytest.raises(DimensionError):
            invert_block(from_text(out), 0)

    def test_bad_pivot_rejected(self):
        with pytest.raises(InvalidArgumentError):
            invert_block(from_text("1010"), 2)

    def test_inverts_transform_block_exhaustively(self):
        for b in (3, 5, 7):
            for value in range(1 << (b - 1)):
                out = BitString(value, b - 1)
                for pivot in (0, 1):
                    block = invert_block(out, pivot)
                    assert transform_block(block) == out
                    assert block[(b - 1) // 2] == pivot


class TestForge:
    def test_single_block_example(self):
        assert forge(TPL_1010, from_text("0")).data == from_text("10010")

    def test_two_block_examples(self):
        assert forge(TPL_10101000, from_text("01")).data == from_text("1001001111")
        assert forge(TPL_10101000, from_text("11")).data == from_text("0110101111")

    def test_selector_length_mismatch(self):
        with pytest.raises(DimensionError):
            forge(TPL_10101000, from_text("011"))

    def test_forged_length_is_padded_length(self):
        tpl = tpl_of("1011001")  # 7 bits, zero-padded to 2 blocks
        assert len(forge(tpl, from_text("00"))) == 10

    @settings(max_examples=1000)
    @given(block_multiple_features(), st.data())
    def test_round_trip_always_succeeds(self, fv_params, data):
        fv, params = fv_params
        tpl = transform(fv, params)
        sel_value = data.draw(st.integers(0, (1 << tpl.block_count) - 1))
        forged = forge(tpl, BitString(sel_value, tpl.block_count))
        assert transform(forged, params) == tpl

    @settings(max_examples=1000)
    @given(block_multiple_features(), st.data())
    def test_complement_pairing(self, fv_params, data):
        fv, params = fv_params
        tpl = transform(fv, params)
        sel_value = data.draw(st.integers(0, (1 << tpl.block_count) - 1))
        sel = BitString(sel_value, tpl.block_count)
        assert forge(tpl, complement(sel)).data == complement(forge(tpl, sel).data)


class TestInverseAgainstOracle:
    """The inverse kernel against the bitwise definition."""

    @settings(max_examples=400, deadline=None)
    @given(kernel_features(), st.data())
    def test_forge_matches_oracle_and_round_trips(self, bs_params, data):
        bs, params = bs_params
        tpl = transform(bs, params)
        n = tpl.block_count
        selector = BitString(data.draw(st.integers(0, (1 << n) - 1)), n)
        forged = forge(tpl, selector)
        b = params.block_size
        assert forged.data.to_text() == oracle_forge(tpl.data.to_text(), b, selector.to_text())
        assert transform(forged, params).same_template(tpl)

    @settings(max_examples=300)
    @given(every_odd_block_size, st.data())
    def test_invert_block_matches_oracle_and_round_trips(self, b, data):
        out = BitString(data.draw(st.integers(0, (1 << (b - 1)) - 1)), b - 1)
        pivot = data.draw(st.sampled_from([0, 1]))
        block = invert_block(out, pivot)
        assert block.to_text() == oracle_forge(out.to_text(), b, str(pivot))
        assert transform_block(block) == out

    def test_large_template_matches_oracle(self):
        for b in (3, 5, 17):
            tpl = transform(random_bits(20_003, 12), TransformParams(b))
            selector = random_bits(tpl.block_count, 13)
            forged = forge(tpl, selector)
            assert forged.data.to_text() == oracle_forge(tpl.data.to_text(), b, selector.to_text())

    def test_provenance_is_a_fixed_label(self):
        tpl = transform(random_bits(5000, 14), ZP)
        assert forge(tpl, random_bits(tpl.block_count, 15)).provenance == "forged"


class TestEnumeratePreimages:
    def test_single_block_fiber(self):
        fiber = [fv.data for fv in enumerate_preimages(TPL_1010, 10)]
        assert fiber == [from_text("10010"), from_text("01101")]

    def test_two_block_fiber_in_ascending_selector_order(self):
        fiber = [fv.data for fv in enumerate_preimages(TPL_10101000, 10)]
        assert fiber == [
            from_text("1001010000"),
            from_text("1001001111"),
            from_text("0110110000"),
            from_text("0110101111"),
        ]

    def test_limit_caps_enumeration(self):
        only = list(enumerate_preimages(TPL_10101000, 1))
        assert len(only) == 1
        assert only[0].data == forge(TPL_10101000, from_text("00")).data

    def test_limit_must_be_positive(self):
        with pytest.raises(InvalidArgumentError):
            list(enumerate_preimages(TPL_1010, 0))

    @settings(max_examples=200)
    @given(block_multiple_features(max_blocks=6))
    def test_no_duplicates_and_all_map_back(self, fv_params):
        fv, params = fv_params
        tpl = transform(fv, params)
        fiber = [p.data for p in enumerate_preimages(tpl, 1 << tpl.block_count)]
        assert len(fiber) == len(set(fiber)) == 1 << tpl.block_count
        assert all(transform(p, params) == tpl for p in fiber)


class TestCountPreimages:
    def test_worked_examples(self):
        assert count_preimages(TPL_1010).exact == 2
        assert count_preimages(TPL_10101000).exact == 4

    def test_headline_count_is_symbolic(self):
        tpl = transform(FeatureVector(random_bits(1795, 7)), ZP)
        count = count_preimages(tpl)
        assert count.exponent == 359
        assert count.exact == 2**359
        assert str(count) == "2^359"

    def test_small_counts_render_decimal(self):
        assert str(PreimageCount(1)) == "2"
        assert str(PreimageCount(2)) == "4"
        assert str(PreimageCount(62)) == str(2**62)
        assert str(PreimageCount(63)) == "2^63"


class TestBuildTable:
    def test_b5_matches_reference_fixture(self):
        expected = TABLE_B5_FIXTURE.read_text(encoding="utf-8").rstrip("\n")
        assert build_table(5).render() == expected

    def test_b3_matches_brute_force(self):
        table = build_table(3)
        rendered = {
            out.to_text(): (p0.to_text(), p1.to_text()) for out, (p0, p1) in table.rows.items()
        }
        assert rendered == {
            "00": ("000", "111"),
            "01": ("001", "110"),
            "10": ("100", "011"),
            "11": ("101", "010"),
        }

    def test_last_row_of_b5(self):
        rows = build_table(5).rows
        assert rows[from_text("1111")] == (from_text("11011"), from_text("00100"))

    @pytest.mark.parametrize("b", [3, 5, 7])
    def test_rows_are_complete_consistent_complement_pairs(self, b):
        table = build_table(b)
        assert len(table.rows) == 1 << (b - 1)
        for out, (p0, p1) in table.rows.items():
            assert p0 == complement(p1)
            assert transform_block(p0) == out
            assert transform_block(p1) == out

    @pytest.mark.parametrize("b", [2, 4, 1, 19, -5])
    def test_out_of_range_sizes_rejected(self, b):
        with pytest.raises(InvalidArgumentError):
            build_table(b)
