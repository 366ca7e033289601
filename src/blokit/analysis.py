"""Executable security studies of the block transform.

Four questions, each answered by measurement rather than argument:

- fiber_census: exhaustively enumerate small input spaces and count the
  inputs that reach each template, confirming every template has exactly
  2**n preimages (census_fibers keeps the member lists themselves).
- recovery_probability: Monte Carlo estimate of the chance that a forged
  vector equals the original, against the analytic 2**-n.
- linkability_study: enroll synthetic users on several devices and
  measure how often same-user templates match across devices.
- revocability_check: re-enroll one feature repeatedly and count the
  distinct templates produced.

Randomized studies draw every trial from its own stream generator derived
from the master seed, then aggregate in trial order, so results are
deterministic for a given seed no matter how trials are scheduled.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .bits import BitString, FeatureVector, random_bits, refuse_beyond_u32, stream_draws
from .errors import CapacityError, InvalidArgumentError
from .transform import TransformParams, invert_value, template_payload, transform_value

CENSUS_MAX_BITS = 24

RECOVERY_CHUNK_BITS = 1 << 12

_KEYED_BASELINE_NOTE = "per-device XOR mask; synthetic control, not part of the analyzed scheme"


@dataclass
class AnalysisReport:
    """Structured study result: parameters in, findings out, one-line verdict."""

    kind: str
    parameters: "dict[str, object]" = field(default_factory=dict)
    findings: "dict[str, object]" = field(default_factory=dict)
    verdict: str = ""

    def to_text(self) -> str:
        """Render as one 'key<TAB>value' line per entry (UTF-8, diffable)."""
        lines = [f"kind\t{self.kind}"]
        lines += [f"param.{k}\t{_fmt(v)}" for k, v in self.parameters.items()]
        lines += [f"finding.{k}\t{_fmt(v)}" for k, v in self.findings.items()]
        lines.append(f"verdict\t{self.verdict}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(vars(self), indent=2)


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _census_split(bit_length: int, block_size: int) -> "tuple[int, Iterator[int], list[int]]":
    """Check a census request; return (block count, head templates, tail templates).

    Every template bit is x_i ^ x_pivot, so the transform is linear over XOR:
    an input ``high << s | low`` has the template ``T(high << s) ^ T(low)``.
    With s = bit_length // 2, each input's template is one head XOR one tail,
    heads in ascending ``high`` (walked lazily) and tails in ascending ``low``
    (a table of at most 2^12 entries within the bound), so walking every tail
    for every head visits the inputs in ascending order.
    """
    params = TransformParams(block_size)
    if bit_length > CENSUS_MAX_BITS:
        raise CapacityError(
            f"census over 2^{bit_length} inputs exceeds the 2^{CENSUS_MAX_BITS} bound"
        )
    if bit_length < block_size or bit_length % block_size:
        raise InvalidArgumentError(
            f"census length must be a positive multiple of the block size, got {bit_length}"
        )
    b, n, s = params.block_size, bit_length // params.block_size, bit_length // 2
    tails = [transform_value(low, n, b) for low in range(1 << s)]
    heads = (transform_value(high << s, n, b) for high in range(1 << (bit_length - s)))
    return n, heads, tails


def census_fibers(bit_length: int, block_size: int) -> "dict[int, list[int]]":
    """Group all 2**bit_length inputs by template.

    Keys and members are MSB-first integer encodings of the template and
    input bit strings.  Refuses lengths beyond CENSUS_MAX_BITS.
    """
    _, heads, tails = _census_split(bit_length, block_size)
    # Input high << s | low has template head ^ tail (see _census_split); the
    # walk visits inputs in ascending order, so enumerate pairs each with its input.
    fibers: "dict[int, list[int]]" = {}
    for value, tpl in enumerate(head ^ tail for head in heads for tail in tails):
        members = fibers.get(tpl)
        if members is None:
            fibers[tpl] = [value]
        else:
            members.append(value)
    return fibers


def fiber_census(bit_length: int, block_size: int) -> AnalysisReport:
    """Exhaustive fiber census over all inputs of the given length.

    Counts, for every template value, the inputs that reach it: one count
    per input, with no member lists, so memory is one counter per template.
    """
    n, heads, tails = _census_split(bit_length, block_size)
    # Each input's template is one head XOR one tail (see _census_split): one
    # kernel call per head and per tail, not per input.
    counts = array("I", [0]) * (1 << (bit_length - n))
    for head in heads:
        for tail in tails:
            counts[head ^ tail] += 1
    sizes = set(counts)
    sizes.discard(0)
    distinct = len(counts) - counts.count(0)
    fiber_size = max(sizes)
    report = AnalysisReport(
        kind="census",
        parameters={"bit_length": bit_length, "block_size": block_size},
        findings={
            "inputs": 1 << bit_length,
            "blocks": n,
            "distinct_templates": distinct,
            "fiber_size": fiber_size,
            "fiber_size_uniform": len(sizes) == 1,
            "impostors_per_template": fiber_size - 1,
        },
    )
    report.verdict = (
        f"{distinct} distinct templates, each reached by exactly {fiber_size} "
        f"inputs; {fiber_size - 1} impostor vectors per template match exactly"
    )
    return report


def recovery_probability(
    bit_length: int, block_size: int, trials: int, seed: int
) -> AnalysisReport:
    """Monte Carlo rate of forgeries that equal the original feature vector.

    Each trial draws a uniform feature vector, transforms it, forges with
    a uniformly random selector, and records exact recovery.  The
    analytic rate is 2**-n for n blocks; the empirical rate is reported
    with the +/-3 binomial standard error band around the analytic value.
    """
    TransformParams(block_size)
    if bit_length < block_size or bit_length % block_size:
        raise InvalidArgumentError(
            f"bit length must be a positive multiple of the block size, got {bit_length}"
        )
    if trials < 1:
        raise InvalidArgumentError("trials must be at least 1")
    refuse_beyond_u32(bit_length)
    n = bit_length // block_size
    successes = 0
    # Trials run in chunks of about RECOVERY_CHUNK_BITS input bits, so memory
    # stays flat at any trial count.  A chunk's originals and selectors are
    # concatenated in trial order, MSB-first, and pass through one kernel
    # call each way; a trial succeeds when its slice of the difference is 0.
    chunk = max(1, RECOVERY_CHUNK_BITS // bit_length)
    original_spec, selector_spec = f"0{bit_length}b", f"0{n}b"
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        labels = [f"trial/{trial}" for trial in range(start, start + count)]
        draws = stream_draws(seed, labels, (bit_length, n))
        originals = int("".join([format(o, original_spec) for o, _ in draws]), 2)
        selectors = int("".join([format(s, selector_spec) for _, s in draws]), 2)
        template = transform_value(originals, count * n, block_size)
        recovered = invert_value(template, count * n, block_size, selectors)
        diff = format(recovered ^ originals, f"0{count * bit_length}b")
        slices = [diff[i : i + bit_length] for i in range(0, len(diff), bit_length)]
        successes += slices.count("0" * bit_length)
    analytic = 2.0 ** -n
    empirical = successes / trials
    std_error = math.sqrt(analytic * (1.0 - analytic) / trials)
    report = AnalysisReport(
        kind="recovery",
        parameters={
            "bit_length": bit_length,
            "block_size": block_size,
            "trials": trials,
            "seed": seed,
        },
        findings={
            "blocks": n,
            "successes": successes,
            "empirical_rate": empirical,
            "analytic_rate": analytic,
            "analytic_rate_symbolic": f"2^-{n}",
            "std_error": std_error,
            "within_3_std_errors": abs(empirical - analytic) <= 3.0 * std_error,
        },
    )
    report.verdict = (
        f"forging with a random selector recovered the original in {successes}/{trials} "
        f"trials (rate {empirical!r}) against the analytic 2^-{n} = {analytic!r}"
    )
    return report


def _match_rate(groups: "Iterable[Iterable[BitString]]") -> float:
    """Fraction of equal payload pairs, over the pairs within each group.

    A class of k equal payloads holds C(k, 2) matching pairs, and a group
    of g payloads C(g, 2) pairs, so no pair is compared on its own.
    """
    pairs = matches = 0
    for group in groups:
        classes = Counter(group).values()
        pairs += math.comb(sum(classes), 2)
        matches += sum(math.comb(k, 2) for k in classes)
    return matches / pairs


def linkability_study(
    users: int,
    devices: int,
    params: TransformParams,
    seed: int,
    keyed_baseline: bool = False,
    feature_bits: int = 1795,
    features: "list[FeatureVector] | None" = None,
) -> AnalysisReport:
    """Cross-device linkability of templates from the same user.

    Every user enrolls the same feature on every device.  The link rate is
    the fraction of same-user cross-device template pairs that match
    exactly; the cross-user collision rate (same device, different users)
    is the control.  With ``keyed_baseline``, a per-device random XOR mask
    is additionally applied post-transform and the masked link rate is
    reported next to the plain one.  ``features`` overrides the synthetic
    user population (for controls such as duplicate enrollees).
    """
    if users < 2 or devices < 2:
        raise InvalidArgumentError("need at least 2 users and 2 devices")
    if features is not None and len(features) != users:
        raise InvalidArgumentError(f"expected {users} feature vectors, got {len(features)}")
    if features is None:
        refuse_beyond_u32(feature_bits)
        features = [
            FeatureVector(random_bits(feature_bits, seed, f"user/{u}"), provenance=f"user/{u}")
            for u in range(users)
        ]
    payloads = [template_payload(fv, params) for fv in features]
    template_bits = {p.length for p in payloads}
    if len(template_bits) != 1:
        raise InvalidArgumentError("user features must produce equally sized templates")
    length = template_bits.pop()

    # Per-device stored payloads: the plain transform, optionally masked.
    # Rows are users (same-user pairs), columns devices (cross-user pairs);
    # every plain row repeats one payload and every plain column is the same.
    masks = None
    if keyed_baseline:
        masks = [random_bits(length, seed, f"device-mask/{d}") for d in range(devices)]

    report = AnalysisReport(
        kind="linkability",
        parameters={
            "users": users,
            "devices": devices,
            "feature_bits": features[0].data.length,
            "block_size": params.block_size,
            "padding": params.padding.value,
            "seed": seed,
            "keyed_baseline": keyed_baseline,
        },
        findings={
            "template_bits": length,
            "same_user_pairs": users * devices * (devices - 1) // 2,
            "cross_user_pairs": devices * users * (users - 1) // 2,
            "link_rate": _match_rate([p] * devices for p in payloads),
            "cross_user_collision_rate": _match_rate([payloads] * devices),
        },
    )
    if masks is not None:
        report.findings["keyed_link_rate"] = _match_rate((p ^ m for m in masks) for p in payloads)
        report.findings["keyed_baseline_note"] = _KEYED_BASELINE_NOTE
    report.verdict = (
        f"same-user templates matched across devices at rate {report.findings['link_rate']!r}: "
        "the keyless deterministic transform makes enrollments linkable"
    )
    if masks is not None:
        report.verdict += (
            f"; the keyed control linked at rate {report.findings['keyed_link_rate']!r}"
        )
    return report


def revocability_check(
    fv: FeatureVector, params: TransformParams, attempts: int
) -> AnalysisReport:
    """Count distinct templates over repeated enrollments of one feature."""
    if attempts < 2:
        raise InvalidArgumentError("need at least 2 enrollment attempts")
    distinct = {template_payload(fv, params) for _ in range(attempts)}
    report = AnalysisReport(
        kind="revocability",
        parameters={
            "feature_bits": fv.data.length,
            "block_size": params.block_size,
            "padding": params.padding.value,
            "attempts": attempts,
        },
        findings={"distinct_templates": len(distinct)},
    )
    report.verdict = (
        f"{attempts} enrollments produced {len(distinct)} distinct template(s): "
        "the map is deterministic and keyless, so a compromised template "
        "cannot be revoked and replaced"
    )
    return report
