"""Constructive inversion of the block transform.

Every output block has exactly two preimages: re-XOR the output bits with
a chosen pivot value and insert that pivot at the middle position.  The
two candidates are bitwise complements of each other, so a template with
n blocks has a fiber of exactly 2**n feature vectors, all enumerable from
the template alone.  No auxiliary information is needed.

Blocks and whole templates are inverted by ``transform.invert_value``, the
inverse half of the transform's kernel pair (see that module).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .bits import BitString, FeatureVector
from .errors import DimensionError, InvalidArgumentError
from .transform import ProtectedTemplate, invert_value

MAX_TABLE_BLOCK_SIZE = 17
_DECIMAL_EXPONENT_LIMIT = 62


def invert_block(out: BitString, pivot_choice: int) -> BitString:
    """Reconstruct the block that transforms to ``out`` under the chosen pivot."""
    if pivot_choice not in (0, 1):
        raise InvalidArgumentError(f"pivot choice must be 0 or 1, got {pivot_choice!r}")
    if out.length < 2 or out.length % 2:
        raise DimensionError(
            f"output block length must be even and >= 2, got {out.length}"
        )
    b = out.length + 1
    return BitString(invert_value(out.value, 1, b, pivot_choice), b)


def forge(tpl: ProtectedTemplate, selector: BitString) -> FeatureVector:
    """Construct a feature vector that transforms exactly to ``tpl``.

    Selector bit i picks the preimage of block i: 0 for the pivot=0
    candidate, 1 for its complement.  The result lives in the padded
    domain, so its length is block_count * block_size.
    """
    if selector.length != tpl.block_count:
        raise DimensionError(
            f"selector has {selector.length} bits, template has {tpl.block_count} blocks"
        )
    b = tpl.params.block_size
    value = invert_value(tpl.data.value, tpl.block_count, b, selector.value)
    return FeatureVector(BitString(value, tpl.block_count * b), provenance="forged")


def enumerate_preimages(tpl: ProtectedTemplate, limit: int) -> Iterator[FeatureVector]:
    """Yield forgeries over selectors in ascending numeric order, capped by ``limit``.

    The cap is mandatory: a full fiber has 2**block_count members and must
    never be materialized by accident.
    """
    if limit < 1:
        raise InvalidArgumentError("limit must be at least 1")
    n = tpl.block_count
    total = 1 << n
    for sel in range(min(total, limit)):
        yield forge(tpl, BitString(sel, n))


@dataclass(frozen=True)
class PreimageCount:
    """Exact fiber size 2**exponent, rendered symbolically beyond 2**62."""

    exponent: int

    @property
    def exact(self) -> int:
        return 1 << self.exponent

    def __str__(self) -> str:
        if self.exponent <= _DECIMAL_EXPONENT_LIMIT:
            return str(1 << self.exponent)
        return f"2^{self.exponent}"


def count_preimages(tpl: ProtectedTemplate) -> PreimageCount:
    """The number of feature vectors mapping to ``tpl``: exactly 2**block_count."""
    return PreimageCount(exponent=tpl.block_count)


@dataclass(frozen=True)
class PreimageTable:
    """Every possible output block with its ordered pair of preimages."""

    block_size: int
    rows: "dict[BitString, tuple[BitString, BitString]]" = field(hash=False)

    def render(self) -> str:
        """One line per output block, ascending: output, pivot=0 and pivot=1 preimages."""
        lines = [f"{out.to_text()}  {p0.to_text()}  {p1.to_text()}" for out, (p0, p1) in self.rows.items()]
        return "\n".join(lines)


def build_table(block_size: int) -> PreimageTable:
    """Tabulate both preimages of every output block for a small block size."""
    if block_size < 3 or block_size % 2 == 0 or block_size > MAX_TABLE_BLOCK_SIZE:
        raise InvalidArgumentError(
            f"table block size must be odd and within [3, {MAX_TABLE_BLOCK_SIZE}], got {block_size}"
        )
    width = block_size - 1
    rows: "dict[BitString, tuple[BitString, BitString]]" = {}
    for value in range(1 << width):
        out = BitString(value, width)
        rows[out] = (invert_block(out, 0), invert_block(out, 1))
    return PreimageTable(block_size=block_size, rows=rows)
