"""Template-versus-template comparison for the simulated matching stage.

The deployed system's matcher over binary vectors is undocumented, so a
normalized Hamming similarity stands in, with exact match (threshold 1.0)
as the strictest default.  Reports that quote match rates state this.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import BitString, FeatureVector
from .errors import IncomparableTemplatesError, InvalidArgumentError
from .transform import ProtectedTemplate, TransformParams, payload_value


@dataclass(frozen=True)
class MatchDecision:
    similarity: float
    threshold: float
    accepted: bool


def _decide(
    value: int, length: int, stored_value: int, stored_length: int, threshold: float
) -> MatchDecision:
    if not 0.0 <= threshold <= 1.0:
        raise InvalidArgumentError(f"threshold must lie in [0, 1], got {threshold}")
    if length != stored_length:
        raise IncomparableTemplatesError(f"length mismatch: {length} vs {stored_length} bits")
    # bits.hamming_distance on the two payloads' values; the lengths are equal here.
    similarity = 1.0 - (value ^ stored_value).bit_count() / length
    return MatchDecision(
        similarity=similarity, threshold=threshold, accepted=similarity >= threshold
    )


def decide_probe(
    probe: "FeatureVector | BitString",
    params: TransformParams,
    stored_value: int,
    stored_length: int,
    threshold: float = 1.0,
) -> MatchDecision:
    """Decide a probe feature against a stored payload made under ``params``.

    The probe is transformed under ``params`` and only its payload's value
    is compared with ``stored_value``, so neither side needs a template
    record or a BitString.  The decision and the errors, in their order
    (the transform's, the threshold's, the length's), are those of
    ``match_templates(transform(probe, stored.params), stored, threshold)``
    for the stored template whose payload this is.
    """
    return _decide(*payload_value(probe, params), stored_value, stored_length, threshold)


def match_probe(
    probe: "FeatureVector | BitString", stored: ProtectedTemplate, threshold: float = 1.0
) -> MatchDecision:
    """``decide_probe`` against a stored template's record."""
    return decide_probe(probe, stored.params, stored.data.value, stored.data.length, threshold)


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
    return _decide(a.data.value, a.data.length, b.data.value, b.data.length, threshold)
