"""Arbitrary-length bit strings: the substrate for features and templates.

Conventions used everywhere in this package:

- Bit index 0 is the leftmost bit of the written string, and the most
  significant bit of the packed byte form (MSB-first).
- The text codec uses '0'/'1' characters; whitespace is ignored on input
  so fixtures can be wrapped and grouped freely.  '.bits' files are
  written as bytes, in 64-digit lines each ending in '\n'.  The writer
  packs the value MSB-first, spreads each bit pair of a packed byte into
  one byte whose two hex digits are those bits, and prints them with
  ``binascii.b2a_hex`` and a newline after every 64 digits.  Each
  direction is one loop over ``BITS_CHUNK`` packed bytes at a time, a run
  of whole lines, for a file of any size: the writer hands each chunk to
  ``write_fd`` as it is printed, so it holds the packed bytes and one
  chunk's text, never the whole file; the reader decodes each chunk as it
  is read and then drops it, so it holds one chunk and the value, never
  the file, and joins the chunks' values pairwise, in balanced merges.
  The reader undoes the writer's steps with ``bytes.fromhex`` and
  ``binascii.a2b_hex``, through tables that refuse any digit but '0' and
  '1': digits in pairs, with ASCII whitespace between pairs, decode
  straight from the bytes, and only other input is decoded as UTF-8 text,
  to skip other whitespace or to name a fault.
- Every error names a file as ``path_name`` does: ``t.blo`` for ``./t.blo``.
- Every file this package writes goes through ``write_fd``, which
  replaces an existing file's content in place: the file keeps its inode
  and is cut to the new length.  Like ``Path.write_bytes``, the write is
  not atomic.  Every file it reads goes through ``read_fd``, but a
  '.bits' file, which ``read_bits_file`` reads a chunk at a time.  The
  file codecs open through ``write_file``, ``read_file`` and
  ``read_bits_file``, which follow links; the store opens its own files
  O_NONBLOCK, and O_NOFOLLOW to write.
- Randomness comes from ``random.Random`` (Mersenne Twister).  The
  generator for a draw is seeded with the SHA-256 digest of the 64-bit
  master seed and a stream label, so independent streams split off one
  seed and every draw is reproducible across runs and platforms.  The
  first seeded draw loads the interpreter's built-in SHA-256 (``_sha2``,
  or ``_sha256`` before Python 3.12), and ``hashlib`` only where neither
  is built; the digest is the same.

All values are immutable after construction; every function here is pure
and safe for unrestricted concurrent use.
"""

from __future__ import annotations

import os
import random
import stat
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .errors import CapacityError, DimensionError, InvalidArgumentError, MalformedInputError

_SEED_MASK = (1 << 64) - 1

FBIN_MAGIC = b"FBV1"

# The text codec's ASCII digits -> bit values as bytes.
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")

# Packed bytes the '.bits' codec writes or decodes at a time: a multiple of 8,
# so each chunk is a run of whole 64-digit lines, 33 KiB of file.  A 2^18-bit
# feature is 8 chunks, and a chunk's buffers stay small enough that malloc
# keeps reusing them rather than handing their pages back after every call.
BITS_CHUNK = 1 << 12

# _PAIR_NIBBLES[j] maps a byte to the byte whose two hex digits are its bits
# 2j and 2j + 1, counted from the most significant: 0x00, 0x01, 0x10 or 0x11.
# Over bytes 0-255 that pair holds each value for 4^(3-j) bytes in turn.
_PAIR_NIBBLES = [
    b"".join(bytes((d,)) * (64 >> 2 * j) for d in b"\x00\x01\x10\x11") * (1 << 2 * j)
    for j in range(4)
]


class BitString:
    """An immutable ordered sequence of bits backed by a Python int.

    ``value`` holds the bits as an unsigned integer with bit 0 of the
    string at the most significant position; leading zero bits are part
    of the string, so ``length`` is stored explicitly.
    """

    __slots__ = ("value", "length")

    def __init__(self, value: int, length: int) -> None:
        if length < 0:
            raise InvalidArgumentError("length must be non-negative")
        if value < 0 or value >> length:
            raise InvalidArgumentError(f"value {value:#x} does not fit in {length} bits")
        self.value = value
        self.length = length

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        bits = list(bits)
        for b in bits:
            if b not in (0, 1) or not hasattr(b, "__index__"):  # 1.0 equals 1 but is no bit
                raise InvalidArgumentError(f"bit value {b!r} is not 0 or 1")
        return cls(int("".join("01"[b] for b in bits) or "0", 2), len(bits))

    @classmethod
    def zeros(cls, length: int) -> "BitString":
        return cls(0, length)

    def __len__(self) -> int:
        return self.length

    def __bool__(self) -> bool:
        return self.length > 0

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise IndexError(f"bit index {index} out of range [0, {self.length})")
        return (self.value >> (self.length - 1 - index)) & 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_text().encode("ascii").translate(_FROM_DIGITS))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self.length == other.length and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.length, self.value))

    def __add__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        return BitString((self.value << other.length) | other.value, self.length + other.length)

    def __xor__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        if self.length != other.length:
            raise DimensionError(f"length mismatch: {self.length} != {other.length}")
        return BitString(self.value ^ other.value, self.length)

    def __repr__(self) -> str:
        if self.length <= 32:
            return f"BitString('{self.to_text()}')"
        head = BitString(self.value >> (self.length - 24), 24).to_text()
        return f"BitString(length={self.length}, bits='{head}...')"

    def __str__(self) -> str:
        return self.to_text()

    def to_text(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

    def complement(self) -> "BitString":
        return BitString(self.value ^ ((1 << self.length) - 1), self.length)

    def count_ones(self) -> int:
        return self.value.bit_count()

    def pack(self) -> bytes:
        """Pack 8 bits per byte, bit 0 at the MSB of the first byte.

        A final partial byte is zero-padded in its low bits.
        """
        nbytes = (self.length + 7) // 8
        return (self.value << (8 * nbytes - self.length)).to_bytes(nbytes, "big")

    @classmethod
    def unpack(cls, data: bytes, length: int) -> "BitString":
        return cls(unpack_value(data, length), length)


def unpack_value(data: bytes, length: int) -> int:
    """The value of ``length`` bits packed as ``BitString.pack`` packs them; the size is checked."""
    if length < 0:
        raise InvalidArgumentError("length must be non-negative")
    nbytes = (length + 7) // 8
    if len(data) != nbytes:
        raise MalformedInputError(
            f"packed payload is {len(data)} bytes, expected {nbytes} for {length} bits"
        )
    return int.from_bytes(data, "big") >> (8 * nbytes - length) if nbytes else 0


def from_text(text: str) -> BitString:
    """Parse a '0'/'1' string into a BitString, skipping whitespace.

    Any other character raises :class:`MalformedInputError` naming the
    offending position (character offset in the original text).
    """
    digits = "".join(text.split())
    # Checked here because int() would also take '_', '+', '0b' and non-ASCII digits.
    if not digits.isascii() or digits.encode("ascii").translate(None, b"01"):
        pos = next(i for i, ch in enumerate(text) if ch not in "01" and not ch.isspace())
        raise MalformedInputError(f"invalid character {text[pos]!r} at position {pos}")
    return BitString(int(digits or "0", 2), len(digits))


def to_text(bs: BitString) -> str:
    return bs.to_text()


def pack(bs: BitString) -> bytes:
    return bs.pack()


def unpack(data: bytes, length: int) -> BitString:
    return BitString.unpack(data, length)


def complement(bs: BitString) -> BitString:
    return bs.complement()


def hamming_distance(x: BitString, y: BitString) -> int:
    """Count of positions where x and y differ; requires equal lengths."""
    if x.length != y.length:
        raise DimensionError(f"length mismatch: {x.length} != {y.length}")
    return (x.value ^ y.value).bit_count()


def _sha256_seed(seed: int, stream: "int | str") -> int:
    # Frozen: every seeded output in the package depends on this derivation.
    digest = _sha256(f"{seed & _SEED_MASK}/{stream}".encode()).digest()
    return int.from_bytes(digest, "big")


def _stream_seed(seed: int, stream: "int | str") -> int:
    """``_sha256_seed``, once a SHA-256 is loaded; only seeded draws need it.

    The first call imports the interpreter's built-in SHA-256 and rebinds
    this global to ``_sha256_seed``.  Callers look the global up on every
    call, so each later call goes straight to the real function.  As in
    CPython's ``random`` module, the built-in module comes first because
    ``hashlib`` maps OpenSSL, about 3.5 MiB of the process; the digest is
    the same.
    """
    global _stream_seed, _sha256
    try:
        from _sha2 import sha256 as _sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256 as _sha256  # Python 3.10-3.11
        except ImportError:
            from hashlib import sha256 as _sha256  # a build without either

    _stream_seed = _sha256_seed
    return _sha256_seed(seed, stream)


def stream_rng(seed: int, stream: "int | str" = 0) -> random.Random:
    """A deterministic generator for (seed, stream), independent per stream."""
    return random.Random(_stream_seed(seed, stream))


def stream_draws(
    seed: int, streams: "Iterable[int | str]", widths: "tuple[int, ...]"
) -> "list[tuple[int, ...]]":
    """Per stream, ``getrandbits(w)`` for each w in ``widths`` from ``stream_rng(seed, stream)``.

    Reseeds one generator per stream instead of building a new one.
    """
    rng = random.Random()
    reseed, getrandbits = rng.seed, rng.getrandbits
    draws = []
    for stream in streams:
        reseed(_stream_seed(seed, stream))
        draws.append(tuple(map(getrandbits, widths)))
    return draws


def refuse_beyond_u32(bit_length: int) -> None:
    """Refuse, before any draw, a synthetic feature no u32 length field can hold."""
    if bit_length >= 1 << 32:
        raise CapacityError(f"{bit_length}-bit feature exceeds the 2^32 - 1 bit bound")


def random_bits(length: int, seed: int, stream: "int | str" = 0) -> BitString:
    """Draw a uniform random BitString, deterministic for (length, seed, stream)."""
    if length < 1:
        raise InvalidArgumentError("length must be at least 1")
    return BitString(stream_rng(seed, stream).getrandbits(length), length)


@dataclass(frozen=True)
class FeatureVector:
    """A raw binary biometric feature string plus a free-text provenance label."""

    data: BitString
    provenance: str = ""

    def __post_init__(self) -> None:
        if self.data.length == 0:
            raise InvalidArgumentError("feature vector must contain at least one bit")

    def __len__(self) -> int:
        return self.data.length


def write_fd(fd: int, data: "bytes | Iterable[bytes]") -> None:
    """Write ``data`` as the whole content of the file open at ``fd``, in place; close ``fd``.

    ``data`` is bytes, or an iterable of byte chunks written in turn, so a
    writer can make each chunk only when it is written.  The file must not
    be opened with O_TRUNC: cutting a non-empty file to zero and closing it
    makes some filesystems (ext4's replace-via-truncate heuristic) start
    writeback at once, which costs far more than the write.
    """
    try:
        size = 0
        for chunk in (data,) if isinstance(data, bytes) else data:
            view = memoryview(chunk)
            size += len(view)
            while view:  # a write above about 2 GiB comes back short
                view = view[os.write(fd, view) :]
        st = os.fstat(fd)
        # Only a regular file that was longer; never /dev/null or a FIFO.
        if stat.S_ISREG(st.st_mode) and st.st_size > size:
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


def path_name(path: "str | os.PathLike[str]") -> str:
    """The name every error gives a file: the text ``pathlib.Path(path)`` prints."""
    from pathlib import Path  # here, so that only a message naming a file loads pathlib
    return str(Path(path))


def write_file(path: "str | os.PathLike[str]", data: "bytes | Iterable[bytes]") -> None:
    """Write ``data`` as the whole content of ``path`` through ``write_fd``, following links."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as exc:
        exc.filename = path_name(path)  # as Path.write_bytes names it
        raise
    write_fd(fd, data)


def read_fd(fd: int, st: "os.stat_result | None" = None) -> bytes:
    """Read the file open at ``fd`` to EOF and close ``fd``; ``st`` is its fstat, if taken."""
    try:
        st = os.fstat(fd) if st is None else st
        chunks = [os.read(fd, st.st_size + 1)]
        # A short read, a file that changed size, or no regular file (a pipe): read on to EOF.
        if len(chunks[0]) != st.st_size or not stat.S_ISREG(st.st_mode):
            while chunks[-1]:
                chunks.append(os.read(fd, 1 << 16))
        return b"".join(chunks)
    finally:
        os.close(fd)


def read_file(path: "str | os.PathLike[str]") -> bytes:
    """The whole content of ``path`` through ``read_fd``; opened blocking, following links."""
    try:
        return read_fd(os.open(path, os.O_RDONLY))
    except OSError as exc:  # from the open or the read: a directory opens, then fails to read
        exc.filename = path_name(path)  # as Path.read_bytes names it
        raise


def _b2a_hex(data: bytes, sep: bytes, bytes_per_sep: int) -> bytes:
    """``binascii.b2a_hex``: the first call imports it and rebinds this global to it.

    So only a '.bits' write loads binascii, and each later call goes straight to it.
    """
    global _b2a_hex
    from binascii import b2a_hex as _b2a_hex

    return _b2a_hex(data, sep, bytes_per_sep)


def write_bits_file(path: "str | os.PathLike[str]", bs: BitString) -> None:
    """Write the text codec ('.bits'): '0'/'1' characters in 64-digit lines."""
    # Packed before the file is opened, so that a value too large to pack
    # leaves the file as it was.
    write_file(path, _bits_file_chunks(bs.pack(), -bs.length % 8))


def _bits_file_chunks(packed: bytes, pad: int) -> Iterator[bytes]:
    """The '.bits' file of ``packed`` less its last ``pad`` bits, in chunks of whole lines."""
    size = BITS_CHUNK
    # A value of no bits is one chunk of no bytes, printed as one empty line.
    for start in range(0, len(packed) or 1, size):
        chunk = packed[start : start + size]
        nibbles = bytearray(4 * len(chunk))
        for j, table in enumerate(_PAIR_NIBBLES):
            nibbles[j::4] = chunk.translate(table)
        text = _b2a_hex(nibbles, b"\n", -32)  # a newline after every 32 bytes: 64-digit lines
        # A chunk of whole 8-byte lines ends its last line; only the file's
        # last line holds pad digits, 8 to 64 of them, so cutting the pad
        # (at most 7) leaves it whole.
        cut = pad if start + size >= len(packed) else 0
        yield memoryview(text)[: len(text) - cut]
        yield b"\n"


# A '.bits' file is read a chunk of BITS_CHUNK // 8 lines at a time, and each
# chunk is decoded as soon as it is read, in three table steps.
# bytes.fromhex turns each pair of digits into one byte, 0x00, 0x01, 0x10 or
# 0x11, and skips ASCII whitespace between pairs.  _PAIR_QUADS maps those four
# to the base-4 digits '0'-'3', and every other byte to 'x', which a2b_hex
# refuses.  a2b_hex packs two base-4 digits a, b into 16a + b; _QUAD_HEX maps
# that to the hex digit of 4a + b, and a second a2b_hex packs the bits.
# fromhex takes an odd run of digits only at the end, so only the file's last
# run may be odd: the last chunk pairs it with a '0'.  A chunk that ends inside
# an odd run hands that run's last digit on to the next chunk, so a line of an
# even width that a chunk cuts still pairs as written; an odd width still
# fails, since fromhex refuses a pair that a newline splits.  The base-4 digits
# are padded with '0's to whole bytes.  The width counts neither pad.
_PAIR_QUADS = (b"01" + b"x" * 14 + b"23").ljust(256, b"x")
_QUAD_HEX = b"".join(digits + b"x" * 12 for digits in (b"0123", b"4567", b"89ab", b"cdef")).ljust(256, b"x")


def _a2b_hex(data: bytes) -> bytes:
    """``binascii.a2b_hex``: the first call imports it and rebinds this global to it.

    So only a '.bits' read loads binascii, and each later call goes straight to it.
    """
    global _a2b_hex
    from binascii import a2b_hex as _a2b_hex

    return _a2b_hex(data)


def _ends_in_odd_run(chunk: bytes) -> bool:
    """Whether ``chunk`` ends in an odd run of '0'/'1' digits.

    Read from the end in spans that grow fourfold, so it costs the length of
    that run, not of the chunk.
    """
    span = 128
    while True:
        tail = chunk[-span:]
        run = len(tail) - len(tail.rstrip(b"01"))
        if run < len(tail) or len(tail) == len(chunk):
            return run & 1 == 1
        span *= 4


def _decode_bits_chunk(chunk: bytes, last: bool) -> "tuple[int, int]":
    """(value, width) of a chunk of a '.bits' file; ValueError if it needs the text path."""
    text = chunk.decode("ascii")
    odd = 0
    if last:
        text = text.rstrip()
        odd = (len(text) - len(text.rstrip("01"))) & 1
        text += "0" * odd
    quads = bytes.fromhex(text).translate(_PAIR_QUADS)
    width = 2 * len(quads) - odd
    packed = _a2b_hex(_a2b_hex(quads + b"0" * (-len(quads) % 4)).translate(_QUAD_HEX))
    return int.from_bytes(packed, "big") >> (8 * len(packed) - width), width


# Any chunk that fails the decode above sends the whole file to the text
# path: decoded as UTF-8 text with universal newlines, exactly as
# Path.read_text would, and parsed by from_text, which skips any other
# whitespace and names the first bad character at its text offset.  A regular
# file is read again from its start for that; a pipe keeps the chunks it has
# read.  The chunk values merge as a binary counter does: two runs of equally
# many chunks join, the earlier above, and the last chunk folds every run into
# the value.  Each bit is copied once per level, so a file of k chunks costs
# log2(k) passes, where joining each new chunk below the rest would cost k.
def read_bits_file(path: "str | os.PathLike[str]") -> BitString:
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            st = os.fstat(fd)
            regular = stat.S_ISREG(st.st_mode)
            kept = []  # a pipe's chunks, for the text path
            runs = []  # (value, width, chunks) per run, earliest first, chunk counts falling
            carry = b""  # the digit that the last chunk handed on
            size = BITS_CHUNK // 8 * 65  # file bytes in a chunk: whole 64-digit lines and their newlines
            left = st.st_size if regular else -1
            while True:
                # A regular file's last read asks for one byte past its size, so
                # that the read which reaches that size also shows its end.  A
                # short read anywhere else, or from a pipe, reads on to fill the chunk.
                want = left + 1 if 0 <= left <= size else size
                chunk = os.read(fd, want)
                while len(chunk) < want and len(chunk) != left:
                    more = os.read(fd, want - len(chunk))
                    if not more:
                        break
                    chunk += more
                left -= len(chunk)
                last = len(chunk) < want
                if not regular:
                    kept.append(chunk)
                chunk, carry = carry + chunk, b""
                # A chunk of whole 64-digit lines ends in a newline and pays one test.
                if not last and chunk[-1] in b"01" and _ends_in_odd_run(chunk):
                    chunk, carry = chunk[:-1], chunk[-1:]
                try:
                    value, width = _decode_bits_chunk(chunk, last)
                except ValueError:
                    break
                chunks = 1
                while runs and (last or runs[-1][2] == chunks):
                    high, high_width, high_chunks = runs.pop()
                    value, width, chunks = high << width | value, high_width + width, high_chunks + chunks
                if last:
                    return BitString(value, width)
                runs.append((value, width, chunks))
            if regular:
                os.lseek(fd, 0, os.SEEK_SET)
            kept.extend(iter(lambda: os.read(fd, 1 << 16), b""))
        finally:
            os.close(fd)
    except OSError as exc:  # from the open or a read: a directory opens, then fails to read
        exc.filename = path_name(path)  # as Path.read_bytes names it
        raise
    try:
        return from_text(b"".join(kept).decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"{path_name(path)}: not UTF-8 text (byte {exc.start})") from exc
    except MalformedInputError as exc:
        raise MalformedInputError(f"{path_name(path)}: {exc}") from exc


def write_fbin_file(path: "str | os.PathLike[str]", bs: BitString) -> None:
    """Write the packed binary codec ('.fbin'): magic, u32 length, payload."""
    if bs.length >= 1 << 32:
        raise InvalidArgumentError("bit length does not fit the 32-bit header field")
    write_file(path, FBIN_MAGIC + bs.length.to_bytes(4, "big") + bs.pack())


def read_fbin_file(path: "str | os.PathLike[str]") -> BitString:
    raw = read_file(path)
    try:
        if len(raw) < 8 or raw[:4] != FBIN_MAGIC:
            raise MalformedInputError("not a packed feature file (bad magic)")
        return BitString.unpack(raw[8:], int.from_bytes(raw[4:8], "big"))
    except MalformedInputError as exc:
        raise MalformedInputError(f"{path_name(path)}: {exc}") from exc


def _is_fbin(name: str) -> bool:
    # For a path that names a file, its basename is Path(path).name, and its
    # suffix is ".fbin" just when the name ends so after at least one more character.
    return name[1:].endswith(".fbin")


def read_feature(path: "str | os.PathLike[str]") -> FeatureVector:
    """Load a feature vector, dispatching on the '.fbin' suffix."""
    name = os.path.basename(path)
    bs = read_fbin_file(path) if _is_fbin(name) else read_bits_file(path)
    if bs.length == 0:
        raise MalformedInputError(f"{path_name(path)}: empty feature file")
    return FeatureVector(bs, provenance=name)


def write_feature(path: "str | os.PathLike[str]", fv: FeatureVector) -> None:
    write = write_fbin_file if _is_fbin(os.path.basename(path)) else write_bits_file
    write(path, fv.data)
