"""Template-versus-template comparison for the simulated matching stage.

The deployed system's matcher over binary vectors is undocumented, so a
normalized Hamming similarity stands in, with exact match (threshold 1.0)
as the strictest default.  Reports that quote match rates state this.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import hamming_distance
from .errors import IncomparableTemplatesError, InvalidArgumentError
from .transform import ProtectedTemplate


@dataclass(frozen=True)
class MatchDecision:
    similarity: float
    threshold: float
    accepted: bool


def match_templates(
    a: ProtectedTemplate, b: ProtectedTemplate, threshold: float = 1.0
) -> MatchDecision:
    """Compare two templates by normalized Hamming similarity.

    similarity = 1 - distance/length; accepted iff similarity >= threshold.
    Symmetric in a and b.
    """
    if not 0.0 <= threshold <= 1.0:
        raise InvalidArgumentError(f"threshold must lie in [0, 1], got {threshold}")
    # A store lookup matches against the stored template's own params object.
    if a.params is not b.params and a.params != b.params:
        raise IncomparableTemplatesError(
            f"parameter mismatch: {a.params} vs {b.params}"
        )
    if a.data.length != b.data.length:
        raise IncomparableTemplatesError(
            f"length mismatch: {a.data.length} vs {b.data.length} bits"
        )
    similarity = 1.0 - hamming_distance(a.data, b.data) / a.data.length
    return MatchDecision(
        similarity=similarity, threshold=threshold, accepted=similarity >= threshold
    )
