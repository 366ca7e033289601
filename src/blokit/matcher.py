"""Template-versus-template comparison for the simulated matching stage.

The deployed system's matcher over binary vectors is undocumented, so a
normalized Hamming similarity stands in, with exact match (threshold 1.0)
as the strictest default.  Reports that quote match rates state this.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import BitString, FeatureVector
from .errors import IncomparableTemplatesError, InvalidArgumentError
from .transform import ProtectedTemplate, template_payload


@dataclass(frozen=True)
class MatchDecision:
    similarity: float
    threshold: float
    accepted: bool


def _decide(payload: BitString, stored: BitString, threshold: float) -> MatchDecision:
    if not 0.0 <= threshold <= 1.0:
        raise InvalidArgumentError(f"threshold must lie in [0, 1], got {threshold}")
    length = stored.length
    if payload.length != length:
        raise IncomparableTemplatesError(f"length mismatch: {payload.length} vs {length} bits")
    # bits.hamming_distance, less its length check: the lengths are equal here.
    similarity = 1.0 - (payload.value ^ stored.value).bit_count() / length
    return MatchDecision(
        similarity=similarity, threshold=threshold, accepted=similarity >= threshold
    )


def match_probe(
    probe: "FeatureVector | BitString", stored: ProtectedTemplate, threshold: float = 1.0
) -> MatchDecision:
    """Decide a probe feature against a stored template.

    The probe is transformed under ``stored.params`` and only its payload is
    compared with ``stored.data``, so no candidate template is built.  The
    decision and the errors, in their order (the transform's, the
    threshold's, the length's), are those of ``match_templates(transform(probe,
    stored.params), stored, threshold)``.
    """
    return _decide(template_payload(probe, stored.params), stored.data, threshold)


def match_templates(
    a: ProtectedTemplate, b: ProtectedTemplate, threshold: float = 1.0
) -> MatchDecision:
    """Compare two templates by normalized Hamming similarity.

    similarity = 1 - distance/length; accepted iff similarity >= threshold.
    Symmetric in a and b.
    """
    # Templates made under one params object skip the compare.  A threshold
    # out of range is reported first, by _decide.
    if a.params is not b.params and a.params != b.params and 0.0 <= threshold <= 1.0:
        raise IncomparableTemplatesError(
            f"parameter mismatch: {a.params} vs {b.params}"
        )
    return _decide(a.data, b.data, threshold)
