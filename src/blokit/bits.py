"""Arbitrary-length bit strings: the substrate for features and templates.

Conventions used everywhere in this package:

- Bit index 0 is the leftmost bit of the written string, and the most
  significant bit of the packed byte form (MSB-first).
- The text codec uses '0'/'1' characters; whitespace is ignored on input
  so fixtures can be wrapped and grouped freely.  '.bits' files are
  written as bytes, in 64-digit lines each ending in '\n'.  On reading,
  the bytes are checked first: digits and '\n' alone decode straight
  from the bytes, and only other input is decoded as UTF-8 text, to skip
  other whitespace or to name a fault.
- Every error names a file as ``path_name`` does: ``t.blo`` for ``./t.blo``.
- Every file this package writes goes through ``write_fd``, which
  replaces an existing file's content in place: the file keeps its inode
  and is cut to the new length.  Like ``Path.write_bytes``, the write is
  not atomic.  Every file it reads goes through ``read_fd``.  The file
  codecs open through ``write_file`` and ``read_file``, which follow links;
  the store opens its own files O_NONBLOCK, and O_NOFOLLOW to write.
- Randomness comes from ``random.Random`` (Mersenne Twister).  The
  generator for a draw is seeded with the SHA-256 digest of the 64-bit
  master seed and a stream label, so independent streams split off one
  seed and every draw is reproducible across runs and platforms.

All values are immutable after construction; every function here is pure
and safe for unrestricted concurrent use.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import stat
import struct
from contextlib import suppress
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CapacityError, DimensionError, InvalidArgumentError, MalformedInputError

_SEED_MASK = (1 << 64) - 1

FBIN_MAGIC = b"FBV1"

# Bit values as bytes <-> the text codec's ASCII digits.
_TO_DIGITS, _FROM_DIGITS = bytes.maketrans(b"\0\1", b"01"), bytes.maketrans(b"01", b"\0\1")


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
        with suppress(TypeError):  # from bytes(): a non-integer equal to 0 or 1, such as 1.0
            if bits.count(0) + bits.count(1) == len(bits):
                return cls(int(bytes(bits).translate(_TO_DIGITS) or b"0", 2), len(bits))
        bad = next(b for b in bits if b not in (0, 1) or not hasattr(b, "__index__"))
        raise InvalidArgumentError(f"bit value {bad!r} is not 0 or 1")

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
        if length < 0:
            raise InvalidArgumentError("length must be non-negative")
        nbytes = (length + 7) // 8
        if len(data) != nbytes:
            raise MalformedInputError(
                f"packed payload is {len(data)} bytes, expected {nbytes} for {length} bits"
            )
        value = int.from_bytes(data, "big") >> (8 * nbytes - length) if nbytes else 0
        return cls(value, length)


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


def _stream_seed(seed: int, stream: "int | str") -> int:
    # Frozen: every seeded output in the package depends on this derivation.
    digest = hashlib.sha256(f"{seed & _SEED_MASK}/{stream}".encode()).digest()
    return int.from_bytes(digest, "big")


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


def write_fd(fd: int, data: bytes) -> None:
    """Write ``data`` as the whole content of the file open at ``fd``, in place; close ``fd``.

    The file must not be opened with O_TRUNC: cutting a non-empty file to
    zero and closing it makes some filesystems (ext4's replace-via-truncate
    heuristic) start writeback at once, which costs far more than the write.
    """
    try:
        view = memoryview(data)
        while view:  # a write above about 2 GiB comes back short
            view = view[os.write(fd, view) :]
        st = os.fstat(fd)
        # Only a regular file that was longer; never /dev/null or a FIFO.
        if stat.S_ISREG(st.st_mode) and st.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def path_name(path: "str | os.PathLike[str]") -> str:
    """The name every error gives a file: the text ``pathlib.Path(path)`` prints."""
    from pathlib import Path  # here, so that only a message naming a file loads pathlib
    return str(Path(path))


def write_file(path: "str | os.PathLike[str]", data: bytes) -> None:
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


def write_bits_file(path: "str | os.PathLike[str]", bs: BitString) -> None:
    """Write the text codec ('.bits'): '0'/'1' characters in 64-digit lines."""
    text = bs.to_text().encode("ascii")
    whole, tail = divmod(len(text), 64)
    # A Struct of its own: struct.unpack_from would keep the compiled
    # format, about 0.6 MB per Mbit, in a cache of up to 100 formats.
    lines = list(struct.Struct("64s" * whole).unpack_from(text))
    if tail:
        lines.append(text[-tail:])
    write_file(path, b"\n".join(lines) + b"\n")


# A file of digits and '\n' alone, as written above, decodes from its bytes.
# Anything else is decoded as UTF-8 text with universal newlines, exactly as
# Path.read_text would, and parsed by from_text, which skips any other
# whitespace and names the first bad character at its text offset.
def read_bits_file(path: "str | os.PathLike[str]") -> BitString:
    raw = read_file(path)
    digits = raw.replace(b"\n", b"")
    if not digits.translate(None, b"01"):
        return BitString(int(digits or b"0", 2), len(digits))
    try:
        with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8") as stream:
            return from_text(stream.read())
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


# For a path that names a file, basename is Path(path).name, and its suffix
# is ".fbin" just when the name ends so after at least one more character.
def read_feature(path: "str | os.PathLike[str]") -> FeatureVector:
    """Load a feature vector, dispatching on the '.fbin' suffix."""
    name = os.path.basename(path)
    bs = read_fbin_file(path) if name[1:].endswith(".fbin") else read_bits_file(path)
    if bs.length == 0:
        raise MalformedInputError(f"{path_name(path)}: empty feature file")
    return FeatureVector(bs, provenance=name)


def write_feature(path: "str | os.PathLike[str]", fv: FeatureVector) -> None:
    write = write_fbin_file if os.path.basename(path)[1:].endswith(".fbin") else write_bits_file
    write(path, fv.data)
