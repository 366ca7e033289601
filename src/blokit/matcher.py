"""Template-versus-template comparison for the simulated matching stage.

The deployed system's matcher over binary vectors is undocumented, so a
normalized Hamming similarity stands in, with exact match (threshold 1.0)
as the strictest default.  Reports that quote match rates state this.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import BitString
from .errors import IncomparableTemplatesError, InvalidArgumentError
from .transform import ProtectedTemplate


@dataclass(frozen=True)
class MatchDecision:
    similarity: float
    threshold: float
    accepted: bool


def match_payload(
    payload: BitString, stored: ProtectedTemplate, threshold: float = 1.0
) -> MatchDecision:
    """Decide a probe's template payload against a stored template of the same params.

    Backs :func:`match_templates`, which checks the params first; a store
    lookup calls it with ``transform.template_payload`` of the probe under
    ``stored.params``, so it builds no candidate template.
    """
    if not 0.0 <= threshold <= 1.0:
        raise InvalidArgumentError(f"threshold must lie in [0, 1], got {threshold}")
    length = stored.data.length
    if payload.length != length:
        raise IncomparableTemplatesError(f"length mismatch: {payload.length} vs {length} bits")
    # bits.hamming_distance, less its length check: the lengths are equal here.
    similarity = 1.0 - (payload.value ^ stored.data.value).bit_count() / length
    return MatchDecision(
        similarity=similarity, threshold=threshold, accepted=similarity >= threshold
    )


def match_templates(
    a: ProtectedTemplate, b: ProtectedTemplate, threshold: float = 1.0
) -> MatchDecision:
    """Compare two templates by normalized Hamming similarity.

    similarity = 1 - distance/length; accepted iff similarity >= threshold.
    Symmetric in a and b.
    """
    # A store lookup matches against the stored template's own params object.
    # A threshold out of range is reported first, by match_payload.
    if a.params is not b.params and a.params != b.params and 0.0 <= threshold <= 1.0:
        raise IncomparableTemplatesError(
            f"parameter mismatch: {a.params} vs {b.params}"
        )
    return match_payload(a.data, b, threshold)
