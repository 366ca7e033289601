import hashlib
import os
from pathlib import Path
import random
import re
import tempfile
import threading

import pytest
from hypothesis import assume, example, given, settings
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
    FBIN_MAGIC,
    path_name,
    read_bits_file,
    read_fbin_file,
    read_fd,
    read_feature,
    read_file,
    stream_draws,
    write_bits_file,
    write_fbin_file,
    write_feature,
    write_file,
)
from blokit.transform import TransformParams, read_template_file, transform, write_template_file

from conftest import (
    bit_strings,
    oracle_bits_file_text,
    oracle_read_bits_file,
)


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

    @staticmethod
    def large_text():
        """70,000 random digits in 64-digit CRLF lines, two holding Unicode whitespace."""
        digits = random_bits(70_000, 16).to_text()
        lines = [digits[i : i + 64] for i in range(0, len(digits), 64)]
        lines[10] = lines[10][:20] + "\x1c" + lines[10][20:]
        lines[700] = lines[700][:33] + "\u3000" + lines[700][33:]
        text = "\r\n".join(lines) + "\r\n"
        assert len(text) >= 1 << 16
        return text

    def test_large_text_matches_oracle(self):
        text = self.large_text()
        digits = [int(ch) for ch in text if not ch.isspace()]
        bs = from_text(text)
        assert (bs.length, list(bs)) == (len(digits), digits)

    @pytest.mark.parametrize("bad", ["_", "+", "\u0661"])
    def test_large_text_bad_last_character_is_named_at_its_offset(self, bad):
        text = self.large_text() + bad
        message = f"invalid character {bad!r} at position {len(text) - 1}"
        with pytest.raises(MalformedInputError, match=f"^{re.escape(message)}$"):
            from_text(text)

    def test_large_bits_file_round_trips_through_read_feature(self, tmp_path):
        bs = random_bits(1 << 18, 18)
        path = tmp_path / "large.bits"
        write_feature(path, FeatureVector(bs))
        assert read_feature(path).data == bs


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

    @given(
        st.one_of(st.integers(-(1 << 70), 1 << 70), st.sampled_from([-1, 1 << 64, (1 << 64) + 5])),
        st.lists(st.one_of(st.integers(0, 10**6), st.text(max_size=12)), max_size=8),
        st.lists(st.integers(1, 300), min_size=1, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_stream_draws_equal_stream_rng(self, seed, streams, widths):
        draws = stream_draws(seed, streams, tuple(widths))
        assert len(draws) == len(streams)
        for stream, drawn in zip(streams, draws):
            rng = stream_rng(seed, stream)
            assert drawn == tuple(rng.getrandbits(w) for w in widths)
            # the frozen derivation, written out: SHA-256 of "seed mod 2^64/stream"
            label = f"{seed % (1 << 64)}/{stream}".encode()
            frozen = random.Random(int.from_bytes(hashlib.sha256(label).digest(), "big"))
            assert drawn[0] == frozen.getrandbits(widths[0])


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
        write_bits_file(path, random_bits(200, 1))
        lines = path.read_text().splitlines()
        assert all(set(line) <= {"0", "1"} for line in lines)
        assert max(len(line) for line in lines) <= 64

    def test_bits_file_bad_character_names_position(self, tmp_path):
        path = tmp_path / "f.bits"
        path.write_text("10102\n")
        with pytest.raises(MalformedInputError, match="position 4"):
            read_bits_file(path)

    @pytest.mark.parametrize("raw", [b"\xff\xfe01", b"0101\x80\n", b"01\xc3"])
    def test_bits_file_not_utf8_is_malformed(self, tmp_path, raw):
        path = tmp_path / "f.bits"
        path.write_bytes(raw)
        with pytest.raises(MalformedInputError, match=re.escape(str(path))):
            read_bits_file(path)
        with pytest.raises(MalformedInputError, match=re.escape(str(path))):
            read_feature(path)

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


# Byte strings that trip decoders: non-UTF-8 lead and continuation bytes,
# whitespace and line breaks outside ASCII, characters int() would accept as
# digits or signs, and NUL.
TRICKY_BYTES = [b"\xff", b"\x80", b"\xc3", b"\xc2\xa0", "\u2028".encode(), "\u0663".encode(),
                b"_", b"+", b"0b", b" ", b"\t", b"\r\n", b"\x00"]
U32_EDGES = [0, 1, 7, 8, 9, 2**31, 2**32 - 1]


@st.composite
def mutated_feature_file(draw, suffix):
    """A valid '.bits' or '.fbin' encoding after up to three random mutations."""
    bs = draw(bit_strings(1, 80))
    if suffix == ".fbin":
        length = draw(st.sampled_from([bs.length] * 4 + U32_EDGES + [bs.length - 1, bs.length + 1]))
        raw = bytearray(b"FBV1" + length.to_bytes(4, "big") + bs.pack())
    else:
        raw = bytearray(bs.to_text().encode("ascii") + b"\n")
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["flip", "truncate", "extend", "insert", "insert"]))
        at = draw(st.integers(0, len(raw)))
        if op == "flip" and at < len(raw):
            raw[at] ^= 1 << draw(st.integers(0, 7))
        elif op == "truncate":
            del raw[at:]
        elif op == "extend":
            raw += draw(st.binary(min_size=1, max_size=8))
        elif op == "insert":
            raw[at:at] = draw(st.sampled_from(TRICKY_BYTES))
    return bytes(raw)


class TestFeatureFileFuzz:
    @pytest.fixture(scope="class")
    def fuzz_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @pytest.mark.parametrize("suffix", [".bits", ".fbin"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutations_decode_or_raise_malformed(self, fuzz_dir, suffix, data):
        raw = data.draw(mutated_feature_file(suffix))
        path = fuzz_dir / f"f{suffix}"
        path.write_bytes(raw)
        try:
            fv = read_feature(path)
        except MalformedInputError:
            return
        if suffix == ".fbin":
            assert fv.data.length == int.from_bytes(raw[4:8], "big")
        else:
            assert fv.data.to_text() == "".join(raw.decode("utf-8").split())


# Other line ends, a BOM, whitespace outside ASCII, a bad character and a
# byte that is not UTF-8 take the reader's text path; the empty and the
# newline-only files are the byte path's edges.
EXOTIC_BITS_FILES = {
    "crlf": b"0110\r\n1001\r\n",
    "lone-cr": b"0110\r1001\r",
    "cr-last": b"0110\n1\r",
    "bom": b"\xef\xbb\xbf0110\n",
    "u3000": "01\u300010\n".encode(),
    "x1c": b"01\x1c10\n",
    "bad-byte-after-crlf": b"0110\r\n10\xff1\r\n",
    "bad-char-after-crlf": b"0110\r\n1021\r\n",
    "empty": b"",
    "newlines-only": b"\n\n",
    "bad-char": b"10102\n",
}


class TestBitsCodecAgainstOracle:
    @pytest.fixture(scope="class")
    def codec_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("codec")

    @staticmethod
    def assert_reads_as_oracle(path):
        """read_bits_file gives the oracle's BitString, or its error with the path in front."""
        try:
            expected = oracle_read_bits_file(path)
        except UnicodeDecodeError as exc:
            message = f"{path}: not UTF-8 text (byte {exc.start})"
        except MalformedInputError as exc:
            message = f"{path}: {exc}"
        else:
            assert read_bits_file(path) == expected
            return
        with pytest.raises(MalformedInputError, match=f"^{re.escape(message)}$"):
            read_bits_file(path)

    @settings(max_examples=300, deadline=None)
    @given(bs=bit_strings(max_length=300))
    @example(bs=BitString(0, 0))
    def test_writer_matches_oracle(self, codec_dir, bs):
        path = codec_dir / "w.bits"
        write_bits_file(path, bs)
        assert path.read_bytes() == oracle_bits_file_text(bs).encode("ascii")
        assert read_bits_file(path) == bs

    @pytest.mark.parametrize("lines", [1, 7, 63, 64, 65])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_writer_at_line_boundaries(self, tmp_path, lines, offset):
        length = 64 * lines + offset
        bs = BitString(stream_rng(lines, offset).getrandbits(length), length)
        path = tmp_path / "w.bits"
        write_bits_file(path, bs)
        assert path.read_bytes() == oracle_bits_file_text(bs).encode("ascii")
        assert read_bits_file(path) == bs

    def test_large_writer_matches_oracle(self, tmp_path):
        bs = random_bits(262_140, 19)
        path = tmp_path / "large.bits"
        write_bits_file(path, bs)
        assert path.read_bytes() == oracle_bits_file_text(bs).encode("ascii")
        self.assert_reads_as_oracle(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutations_read_as_oracle(self, codec_dir, data):
        path = codec_dir / "m.bits"
        path.write_bytes(data.draw(mutated_feature_file(".bits")))
        self.assert_reads_as_oracle(path)

    @pytest.mark.parametrize("raw", EXOTIC_BITS_FILES.values(), ids=EXOTIC_BITS_FILES.keys())
    def test_exotic_input_reads_as_oracle(self, tmp_path, raw):
        path = tmp_path / "x.bits"
        path.write_bytes(raw)
        self.assert_reads_as_oracle(path)


class TestWriteFile:
    def test_shorter_rewrite_leaves_exactly_the_new_bytes(self, tmp_path):
        path = tmp_path / "f.bits"
        write_bits_file(path, random_bits(4096, 1))
        inode = path.stat().st_ino
        bs = random_bits(100, 2)
        write_bits_file(path, bs)
        assert path.read_bytes() == oracle_bits_file_text(bs).encode("ascii")
        assert path.stat().st_ino == inode

    def test_rewrite_through_a_symlink_updates_the_target(self, tmp_path):
        target, link = tmp_path / "target.fbin", tmp_path / "link.fbin"
        write_fbin_file(target, random_bits(4096, 1))
        link.symlink_to(target.name)
        write_fbin_file(link, from_text("1010"))
        assert link.is_symlink()
        assert target.read_bytes() == b"FBV1" + (4).to_bytes(4, "big") + b"\xa0"

    def test_rewrite_of_a_hard_link_updates_the_shared_file(self, tmp_path):
        first, second = tmp_path / "a.bits", tmp_path / "b.bits"
        write_bits_file(first, random_bits(4096, 1))
        os.link(first, second)
        write_bits_file(second, from_text("0110"))
        assert first.read_bytes() == second.read_bytes() == b"0110\n"
        assert first.stat().st_nlink == 2

    def test_dev_null_is_a_target(self):
        write_bits_file(os.devnull, random_bits(100, 1))
        write_file(os.devnull, b"")

    def test_fifo_is_a_target(self, tmp_path):
        fifo = tmp_path / "f.fifo"
        os.mkfifo(fifo)
        read = []
        reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_bits_file(fifo, from_text("0110"))
        reader.join(timeout=10)
        assert read == [b"0110\n"]

    def test_short_writes_are_written_on(self, tmp_path, monkeypatch):
        write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:1000]))
        bs = random_bits(50_000, 3)
        path = tmp_path / "f.bits"
        write_bits_file(path, bs)
        assert path.read_bytes() == oracle_bits_file_text(bs).encode("ascii")

    @pytest.mark.parametrize("name", ["missing/f.bits", "./x.bits"])
    def test_os_error_text_is_the_old_writers(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x.bits").mkdir()  # a directory where the file should be
        with pytest.raises(OSError) as old:
            Path(name).write_bytes(b"0\n")
        with pytest.raises(type(old.value), match=f"^{re.escape(str(old.value))}$"):
            write_bits_file(name, from_text("0"))

    @settings(max_examples=100, deadline=None)
    @given(old=st.binary(max_size=300), new=st.binary(max_size=300))
    def test_file_holds_exactly_the_new_bytes(self, tmp_path_factory, old, new):
        path = tmp_path_factory.getbasetemp() / "rewrite.bin"
        path.write_bytes(old)
        write_file(path, new)
        assert path.read_bytes() == new

    def test_codec_writers_never_truncate_on_open(self, tmp_path, monkeypatch):
        # Cutting a file to zero on open makes ext4 flush on close: the
        # writers overwrite in place and cut only the excess.
        flags = []
        os_open = os.open

        def recorded(path, flag, *args, **kwargs):
            flags.append(flag)
            return os_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recorded)
        fv = FeatureVector(random_bits(300, 4))
        for _ in range(2):  # a new file, then a rewrite
            write_feature(tmp_path / "f.bits", fv)
            write_feature(tmp_path / "f.fbin", fv)
            write_template_file(tmp_path / "t.blo", transform(fv, TransformParams(5)))
        assert len(flags) == 6
        assert not any(flag & os.O_TRUNC for flag in flags)


class TestReadFile:
    def test_fifo_is_read_to_eof(self, tmp_path):
        fifo = tmp_path / "f.fifo"
        os.mkfifo(fifo)
        data = random.Random(5).randbytes(200_000)  # more than a pipe holds: several reads
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        assert read_file(fifo) == data
        writer.join(timeout=10)
        assert not writer.is_alive()

    def test_short_reads_are_read_on(self, tmp_path, monkeypatch):
        data = random.Random(6).randbytes(50_000)
        path = tmp_path / "f.bin"
        path.write_bytes(data)
        read = os.read
        monkeypatch.setattr(os, "read", lambda fd, n: read(fd, min(n, 1000)))
        assert read_file(path) == data
        assert read_fd(os.open(path, os.O_RDONLY)) == data

    def test_read_fd_closes_the_descriptor(self, tmp_path):
        path = tmp_path / "d"
        path.mkdir()
        fd = os.open(path, os.O_RDONLY)
        with pytest.raises(IsADirectoryError):
            read_fd(fd)
        with pytest.raises(OSError):
            os.fstat(fd)

    @pytest.mark.parametrize(
        "reader, ext",
        [(read_feature, ".bits"), (read_feature, ".fbin"), (read_template_file, ".blo")],
        ids=["bits", "fbin", "blo"],
    )
    @pytest.mark.parametrize(
        "name",
        ["missing{}", "./missing{}", "adir//missing{}", "adir{}", "./adir{}", "plain/x{}",
         "dangling{}"],
        ids=["missing", "dot-slash", "double-slash", "directory", "dot-slash-directory",
             "through-a-file", "dangling-symlink"],
    )
    def test_os_error_text_is_read_bytes(self, tmp_path, monkeypatch, reader, ext, name):
        monkeypatch.chdir(tmp_path)
        (tmp_path / f"adir{ext}").mkdir()
        (tmp_path / "plain").write_bytes(b"0\n")
        (tmp_path / f"dangling{ext}").symlink_to("nowhere")
        name = name.format(ext)
        with pytest.raises(OSError) as old:
            Path(name).read_bytes()
        with pytest.raises(type(old.value), match=f"^{re.escape(str(old.value))}$"):
            reader(name)

    @pytest.mark.parametrize("name, raw", [("./bad.bits", b"012\n"), ("./bad.fbin", b"XXXX"),
                                           ("./bad.blo", b"XXXX"), ("./empty.bits", b"")])
    def test_decode_error_names_the_normalised_path(self, tmp_path, monkeypatch, name, raw):
        monkeypatch.chdir(tmp_path)
        Path(name).write_bytes(raw)
        read = read_template_file if name.endswith(".blo") else read_feature
        with pytest.raises(MalformedInputError, match=f"^{re.escape(name[2:])}: "):
            read(name)

    @pytest.mark.parametrize("name", ["t.blo", "./t.blo", "a//b", "a/./b/", ".", "/", "//x", "a/.."])
    def test_path_name_is_the_text_path_prints(self, name):
        assert path_name(name) == str(Path(name))
        assert path_name(Path(name)) == str(Path(name))


def file_paths():
    """Relative paths whose last segment is a file name, joined with '/' and '//'."""
    dirs = st.sampled_from(["x.fbin", ".fbin", "x.FBIN", "x.fbin.bits", "..fbin", ".", ".."])
    names = st.sampled_from(["x.fbin", ".fbin", "x.FBIN", "x.fbin.bits", "..fbin", "x.fbin."])
    seps = st.sampled_from(["/", "//"])
    parts = st.lists(st.tuples(dirs, seps), max_size=3)
    return st.builds(lambda ps, name: "".join(d + s for d, s in ps) + name, parts, names)


class TestPathSemantics:
    @settings(max_examples=150, deadline=None)
    @given(path=file_paths())
    def test_fbin_choice_and_provenance_are_paths(self, tmp_path_factory, path):
        # Three levels below this example's own directory, so at most three '..' stay inside it.
        cwd = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp())) / "a" / "b" / "c"
        cwd.mkdir(parents=True)
        parent = os.path.dirname(path)
        try:
            os.makedirs(cwd / parent, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            assume(False)
        assume(not (cwd / path).is_dir())
        fv = FeatureVector(from_text("1011"))
        saved = os.getcwd()
        os.chdir(cwd)
        try:
            write_feature(path, fv)
            is_fbin = Path(path).read_bytes().startswith(FBIN_MAGIC)
            back = read_feature(path)
        finally:
            os.chdir(saved)
        assert is_fbin == (Path(path).suffix == ".fbin")
        assert back == FeatureVector(fv.data, provenance=Path(path).name)
