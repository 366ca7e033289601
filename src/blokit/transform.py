"""The BLO (block logic operation) enrollment transform.

A feature vector is cut into blocks of a fixed odd size b.  Each block is
mapped to b-1 bits by XORing every bit with the middle (pivot) bit and
dropping the pivot; the outputs are concatenated into the protected
template.  The map is deterministic and keyless.

All bit-level work goes through one kernel pair on MSB-first integers,
:func:`transform_value` and its inverse :func:`invert_value`.  One
multiplication XORs every block with its pivot and two masked operations
drop or insert the pivot column, leaving a one-bit gap above each block.
Three masked shifts close the gaps inside each group of 8 blocks, so a
group fills b-1 of the b bytes it spans and its top byte is zero; one
bytearray pass then deletes or inserts every b-th byte.  Every step is
linear in the input.  The masks depend only on the block count and size
and are cached for the last few shapes.
"""

from __future__ import annotations

import enum
import functools
import os
import struct
from dataclasses import dataclass

from .bits import BitString, FeatureVector, path_name, read_file, unpack_value, write_file
from .errors import InvalidArgumentError, MalformedInputError

BLO_MAGIC = b"BLO1"
BLO_VERSION = 1
# magic, version, policy byte, u16 block size, u32 original and payload bit lengths
_BLO_HEADER = struct.Struct(">4sBBHII")


class PaddingPolicy(enum.Enum):
    """How inputs whose length is not a multiple of the block size are handled."""

    ZERO_PAD = "zero-pad"
    TRUNCATE = "truncate"


_POLICY_BYTE = {PaddingPolicy.ZERO_PAD: 0x00, PaddingPolicy.TRUNCATE: 0x01}
_BYTE_POLICY = {v: k for k, v in _POLICY_BYTE.items()}
# Bound once: looking a member up on its enum class costs about 0.1 us (Python 3.11).
_TRUNCATE = PaddingPolicy.TRUNCATE


@dataclass(frozen=True)
class TransformParams:
    """Transform configuration: odd block size and padding policy."""

    block_size: int
    padding: PaddingPolicy = PaddingPolicy.ZERO_PAD

    def __post_init__(self) -> None:
        if self.block_size < 3:
            raise InvalidArgumentError(f"block size must be at least 3, got {self.block_size}")
        if self.block_size % 2 == 0:
            raise InvalidArgumentError(f"block size must be odd, got {self.block_size}")

    @property
    def pivot_index(self) -> int:
        """0-based index of the middle bit consumed by the XORs."""
        return (self.block_size - 1) // 2


@dataclass(frozen=True)
class ProtectedTemplate:
    """The transformed template plus the parameters that produced it."""

    data: BitString
    params: TransformParams
    original_length: int
    block_count: int

    def __post_init__(self) -> None:
        _check_blocks(self.data.length, self.params, self.original_length, self.block_count)

    def same_template(self, other: "ProtectedTemplate") -> bool:
        """Matching-equivalence: equal payload under equal parameters.

        Forged inputs live in the padded domain, so their re-transform can
        differ from the target in ``original_length`` while matching
        everywhere it counts.
        """
        return self.params == other.params and self.data == other.data


def _check_blocks(
    data_bits: int, params: TransformParams, original_length: int, block_count: int
) -> None:
    """A template's checks: its payload is ``block_count`` >= 1 blocks, as many
    as an ``original_length``-bit input yields under ``params``."""
    b = params.block_size
    if block_count < 1:
        raise InvalidArgumentError("template must hold at least one block")
    if data_bits != block_count * (b - 1):
        raise InvalidArgumentError(
            f"template holds {data_bits} bits, expected {block_count} blocks of {b - 1}"
        )
    expected = _block_count(original_length, params)
    if expected != block_count:
        raise InvalidArgumentError(
            f"{original_length}-bit input yields {expected} blocks "
            f"under {params.padding.value}, not {block_count}"
        )


def _block_count(length: int, params: TransformParams) -> int:
    b = params.block_size
    if params.padding is _TRUNCATE:
        if length < b:
            raise InvalidArgumentError(f"{length}-bit input is shorter than one {b}-bit block")
        return length // b
    if length < 1:
        raise InvalidArgumentError("input must contain at least one bit")
    return -(-length // b)


def _aligned_value(bs: BitString, params: TransformParams) -> "tuple[int, int]":
    """Apply the padding policy; return (value, block count)."""
    n = _block_count(bs.length, params)
    total = n * params.block_size
    if total >= bs.length:
        return bs.value << (total - bs.length), n
    return bs.value >> (bs.length - total), n


def _coerce(fv: "FeatureVector | BitString") -> BitString:
    return fv.data if isinstance(fv, FeatureVector) else fv


def _tile(pattern: int, period: int, length: int) -> int:
    """``pattern`` repeated every ``period`` bits over ``length`` bits, by doubling."""
    while period < length:
        pattern |= pattern << period
        period *= 2
    return pattern & ((1 << length) - 1)


# Block i (counted from the least significant end) of the pivot-free value
# sits at bit i*b and moves to bit i*(b-1).  Compaction round j moves the
# blocks whose index has bit j set by 2^j: before it, the blocks sit in
# packed groups of 2^j at multiples of 2^j*b, and its mask holds every odd
# group, which closes up to the even group below it.  Only rounds 0-2 run,
# so block 8g+r ends at bit 8g*b + r*(b-1): group g fills bytes g*b to
# g*b + b-2, and byte g*b + b-1, its 8 gap bits, is zero.  Read big-endian
# over ceil(n/8)*b bytes (the top group padded with zero blocks), the zero
# bytes are every b-th byte from index 0, and deleting them packs every
# group.  Up to 8 blocks form one group and need no byte pass.  The inverse
# inserts the zero bytes and runs the rounds backwards with left shifts.
# It spreads the selector alongside (bit i to bit i*b): selector byte g
# goes to byte g*b, then through the same masks, since shifted left by
# 2^j*(b-1) the selector's odd groups land on the first bits of the masked
# groups and its even groups on no masked bit.
@functools.lru_cache(maxsize=4)
def _kernel_masks(nblocks: int, b: int) -> tuple:
    """Pivot index and spread, block LSBs, the masks below and above the pivot,
    (shift, selector shift, odd-group mask) per compaction round, and the number
    of 8-block groups for the byte pass (0 for a single group)."""
    p, w, length = (b - 1) // 2, b - 1, nblocks * b
    block_lsbs, ones = _tile(1, b, length), (1 << p) - 1
    sizes = [s for s in (1, 2, 4) if s < nblocks]
    rounds = tuple((s, s * w, _tile(((1 << s * w) - 1) << s * b, 2 * s * b, length)) for s in sizes)
    spread = ((1 << b) - 1) ^ (1 << p)
    groups = -(-nblocks // 8) if nblocks > 8 else 0
    return p, spread, block_lsbs, block_lsbs * ones, block_lsbs * (ones << p), rounds, groups


def transform_value(value: int, nblocks: int, b: int) -> int:
    """The template of ``nblocks`` aligned b-bit blocks, both MSB-first integers."""
    p, spread, block_lsbs, low, high, rounds, groups = _kernel_masks(nblocks, b)
    # One carry-free product spreads every pivot over its own block.
    x = value ^ ((value >> p) & block_lsbs) * spread
    x = (x & low) | ((x >> 1) & high)
    for shift, _, odd_groups in rounds:
        t = x & odd_groups
        x ^= t ^ (t >> shift)
    if groups:
        buf = bytearray(x.to_bytes(groups * b, "big"))
        del buf[::b]
        x = int.from_bytes(buf, "big")
    return x


def invert_value(template: int, nblocks: int, b: int, selector: int) -> int:
    """The preimage of a template whose block k takes selector bit k (MSB-first) as pivot."""
    _, _, _, low, high, rounds, groups = _kernel_masks(nblocks, b)
    x = template
    if groups:
        w = b - 1
        packed = template.to_bytes(groups * w, "big")
        buf, selector_buf = bytearray(groups * b), bytearray(groups * b)
        for k in range(1, b):
            buf[k::b] = packed[k - 1 :: w]
        selector_buf[w::b] = selector.to_bytes(groups, "big")
        x, selector = int.from_bytes(buf, "big"), int.from_bytes(selector_buf, "big")
    for shift, selector_shift, odd_groups in reversed(rounds):
        t = (x << shift) & odd_groups
        x ^= t ^ (t >> shift)
        t = (selector << selector_shift) & odd_groups
        selector ^= t ^ (t >> selector_shift)
    # The pivot-0 preimage, with every block whose selector bit is 1 complemented.
    return ((x & low) | ((x & high) << 1)) ^ selector * ((1 << b) - 1)


def segment(fv: "FeatureVector | BitString", params: TransformParams) -> "list[BitString]":
    """Cut the input into consecutive block-size slices after padding/truncation."""
    value, n = _aligned_value(_coerce(fv), params)
    b = params.block_size
    text = format(value, f"0{n * b}b")
    return [BitString(int(text[i : i + b], 2), b) for i in range(0, n * b, b)]


def transform_block(block: BitString) -> BitString:
    """Map one odd-length block to one bit fewer: XOR all bits with the pivot, drop it."""
    b = block.length
    if b < 3 or b % 2 == 0:
        raise InvalidArgumentError(f"block length must be odd and >= 3, got {b}")
    return BitString(transform_value(block.value, 1, b), b - 1)


def payload_value(fv: "FeatureVector | BitString", params: TransformParams) -> "tuple[int, int]":
    """The payload of ``transform(fv, params)`` as (value, bits), and its errors, with no record.

    A probe is decided on its payload under the stored template's params
    alone, so only a template that is kept needs the record.
    """
    value, n = _aligned_value(_coerce(fv), params)
    return transform_value(value, n, params.block_size), n * (params.block_size - 1)


def template_payload(fv: "FeatureVector | BitString", params: TransformParams) -> BitString:
    """``payload_value`` as a BitString."""
    return BitString(*payload_value(fv, params))


def transform(fv: "FeatureVector | BitString", params: TransformParams) -> ProtectedTemplate:
    """Transform a feature vector into its protected template.

    Deterministic: equal inputs always give bit-identical templates.
    """
    bs = _coerce(fv)
    data = template_payload(bs, params)
    return ProtectedTemplate(
        data=data,
        params=params,
        original_length=bs.length,
        block_count=data.length // (params.block_size - 1),
    )


def encode_template(tpl: ProtectedTemplate) -> bytes:
    """The '.blo' codec: magic, version, policy, sizes, packed payload."""
    if tpl.original_length >= 1 << 32 or tpl.data.length >= 1 << 32:
        raise InvalidArgumentError("lengths do not fit the 32-bit header fields")
    if tpl.params.block_size >= 1 << 16:
        raise InvalidArgumentError(
            f"block size {tpl.params.block_size} does not fit the 16-bit header field"
        )
    header = _BLO_HEADER.pack(
        BLO_MAGIC,
        BLO_VERSION,
        _POLICY_BYTE[tpl.params.padding],
        tpl.params.block_size,
        tpl.original_length,
        tpl.data.length,
    )
    return header + tpl.data.pack()


def write_template_file(path: "str | os.PathLike[str]", tpl: ProtectedTemplate) -> None:
    """Write ``encode_template(tpl)`` to ``path`` through ``bits.write_file``."""
    write_file(path, encode_template(tpl))


def read_template_file(path: "str | os.PathLike[str]") -> ProtectedTemplate:
    """Decode the '.blo' file at ``path``, read through ``bits.read_file``."""
    return decode_template(read_file(path), path)


@functools.lru_cache(maxsize=8)
def _header_params(block_size: int, policy_byte: int) -> TransformParams:
    """One shared TransformParams per '.blo' header; an invalid one raises and is not cached."""
    return TransformParams(block_size, _BYTE_POLICY[policy_byte])


def decode_template(raw: bytes, source: "str | os.PathLike[str]") -> ProtectedTemplate:
    """Decode the '.blo' codec; a MalformedInputError names ``source`` through ``path_name``."""
    return _decode_blo(raw, source, _template_record)


def decode_template_fields(
    raw: bytes, source: "str | os.PathLike[str]"
) -> "tuple[TransformParams, int, int, int]":
    """The '.blo' codec's params, original length and payload (value, bits), with no record.

    Every check and error of ``decode_template`` is made, in the same order.
    """
    return _decode_blo(raw, source, _checked_fields)


def _template_record(
    params: TransformParams, original_length: int, value: int, data_bits: int, block_count: int
) -> ProtectedTemplate:
    return ProtectedTemplate(BitString(value, data_bits), params, original_length, block_count)


def _checked_fields(
    params: TransformParams, original_length: int, value: int, data_bits: int, block_count: int
) -> "tuple[TransformParams, int, int, int]":
    _check_blocks(data_bits, params, original_length, block_count)
    return params, original_length, value, data_bits


# The one '.blo' decoder.  It checks the header and the payload's size, then
# hands the fields to ``build``, which makes the template's own checks
# (_check_blocks): a record makes them in its __post_init__, so the decoder
# does not make them twice.  Every error is raised inside the try, so each
# names ``source``.
def _decode_blo(raw: bytes, source: "str | os.PathLike[str]", build):
    try:
        if len(raw) < _BLO_HEADER.size or raw[:4] != BLO_MAGIC:
            raise MalformedInputError("not a template file (bad magic)")
        _, version, policy_byte, block_size, original_length, data_bits = _BLO_HEADER.unpack_from(raw)
        if version != BLO_VERSION:
            raise MalformedInputError(f"unsupported version {version}")
        if policy_byte not in _BYTE_POLICY:
            raise MalformedInputError(f"unknown padding policy byte {policy_byte:#x}")
        params = _header_params(block_size, policy_byte)
        value = unpack_value(raw[_BLO_HEADER.size :], data_bits)
        if data_bits % (block_size - 1):
            raise InvalidArgumentError(
                f"payload of {data_bits} bits is not a whole number of blocks"
            )
        return build(params, original_length, value, data_bits, data_bits // (block_size - 1))
    except (InvalidArgumentError, MalformedInputError) as exc:
        raise MalformedInputError(f"{path_name(source)}: {exc}") from exc
