"""Arbitrary-length bit strings: the substrate for features and templates.

Conventions used everywhere in this package:

- Bit index 0 is the leftmost bit of the written string, and the most
  significant bit of the packed byte form (MSB-first).
- The text codec uses '0'/'1' characters; whitespace is ignored on input
  so fixtures can be wrapped and grouped freely.
- Randomness comes from ``random.Random`` (Mersenne Twister).  The
  generator for a draw is seeded with the SHA-256 digest of the 64-bit
  master seed and a stream label, so independent streams split off one
  seed and every draw is reproducible across runs and platforms.

All values are immutable after construction; every function here is pure
and safe for unrestricted concurrent use.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DimensionError, InvalidArgumentError, MalformedInputError

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
        return bin(self.value).count("1")

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
    if digits.count("0") + digits.count("1") != len(digits):
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
    return bin(x.value ^ y.value).count("1")


def stream_rng(seed: int, stream: "int | str" = 0) -> random.Random:
    """A deterministic generator for (seed, stream), independent per stream."""
    label = f"{seed & _SEED_MASK}/{stream}".encode()
    digest = hashlib.sha256(label).digest()
    return random.Random(int.from_bytes(digest, "big"))


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


def write_bits_file(path: "str | Path", bs: BitString, wrap: int = 64) -> None:
    """Write the text codec ('.bits'): '0'/'1' characters, wrapped lines."""
    text = bs.to_text()
    if wrap > 0:
        lines = [text[i : i + wrap] for i in range(0, len(text), wrap)] or [""]
    else:
        lines = [text]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_bits_file(path: "str | Path") -> BitString:
    return from_text(Path(path).read_text(encoding="utf-8"))


def write_fbin_file(path: "str | Path", bs: BitString) -> None:
    """Write the packed binary codec ('.fbin'): magic, u32 length, payload."""
    if bs.length >= 1 << 32:
        raise InvalidArgumentError("bit length does not fit the 32-bit header field")
    Path(path).write_bytes(FBIN_MAGIC + bs.length.to_bytes(4, "big") + bs.pack())


def read_fbin_file(path: "str | Path") -> BitString:
    raw = Path(path).read_bytes()
    if len(raw) < 8 or raw[:4] != FBIN_MAGIC:
        raise MalformedInputError(f"{path}: not a packed feature file (bad magic)")
    length = int.from_bytes(raw[4:8], "big")
    return BitString.unpack(raw[8:], length)


def read_feature(path: "str | Path") -> FeatureVector:
    """Load a feature vector, dispatching on the '.fbin' suffix."""
    p = Path(path)
    bs = read_fbin_file(p) if p.suffix == ".fbin" else read_bits_file(p)
    if bs.length == 0:
        raise MalformedInputError(f"{path}: empty feature file")
    return FeatureVector(bs, provenance=p.name)


def write_feature(path: "str | Path", fv: FeatureVector) -> None:
    p = Path(path)
    if p.suffix == ".fbin":
        write_fbin_file(p, fv.data)
    else:
        write_bits_file(p, fv.data)
