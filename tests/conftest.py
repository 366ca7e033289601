import os
import stat
from itertools import combinations
from pathlib import Path

import hypothesis.strategies as st

from blokit import (
    BitString,
    FeatureVector,
    PaddingPolicy,
    TransformParams,
    forge,
    from_text,
    random_bits,
    stream_rng,
    transform,
)
from blokit.transform import invert_value, transform_value
from parser_reuse import SRC

DATA_DIR = Path(__file__).parent / "data"

TABLE_B5_FIXTURE = DATA_DIR / "table_b5.txt"

# `gen --bits 1795 --seed 7 --out f.bits`, as the text-mode writer wrote it on POSIX.
GEN_1795_SEED7_BITS = DATA_DIR / "gen_1795_seed7.bits"


def fresh_env():
    """The environment of a fresh interpreter that imports blokit from this checkout.

    It writes no bytecode, so no run leaves a ``__pycache__`` under ``src/``.
    """
    return {"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}


def store_state(root):
    """Each path under ``root``: a link's target, ``None`` for a directory, a regular file's bytes.

    Any other file is recorded by its type and never opened, so a FIFO cannot block.
    """
    state = {}
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames + filenames:
            path = Path(dirpath, name)
            key, mode = str(path.relative_to(root)), path.lstat().st_mode
            if stat.S_ISLNK(mode):
                state[key] = ("link", os.readlink(path))
            elif stat.S_ISREG(mode):
                state[key] = path.read_bytes()
            else:
                state[key] = None if stat.S_ISDIR(mode) else stat.S_IFMT(mode)
    return state


@st.composite
def bit_strings(draw, min_length=0, max_length=64):
    length = draw(st.integers(min_length, max_length))
    value = draw(st.integers(0, (1 << length) - 1)) if length else 0
    return BitString(value, length)


odd_block_sizes = st.sampled_from([3, 5, 7, 9])

every_odd_block_size = st.sampled_from(range(3, 18, 2))

padding_policies = st.sampled_from(list(PaddingPolicy))


@st.composite
def lookup_cases(draw):
    """(stored feature, params, probe, threshold) over every kind of probe and threshold."""
    params = TransformParams(draw(every_odd_block_size), draw(padding_policies))
    b = params.block_size
    length = draw(st.integers(b, 12 * b))
    stored = FeatureVector(random_bits(length, draw(st.integers(0, 2**16))))
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["genuine", "forged", "random", "other-length", "short"]))
    if kind == "genuine":
        probe = stored
    elif kind == "forged":
        tpl = transform(stored, params)
        probe = forge(tpl, random_bits(tpl.block_count, seed))
    else:
        probe_length = {
            "random": st.just(length),
            "other-length": st.integers(1, 14 * b).filter(lambda n: n != length),
            "short": st.integers(1, b - 1),
        }[kind]
        probe = FeatureVector(random_bits(draw(probe_length), seed))
    threshold = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.1, 1.5, float("nan")])))
    return stored, params, probe, threshold


@st.composite
def transform_params(draw):
    return TransformParams(draw(odd_block_sizes), draw(padding_policies))


@st.composite
def block_multiple_features(draw, max_blocks=8):
    """Feature vector whose length is an exact multiple of the block size."""
    b = draw(odd_block_sizes)
    nblocks = draw(st.integers(1, max_blocks))
    length = b * nblocks
    value = draw(st.integers(0, (1 << length) - 1))
    return FeatureVector(BitString(value, length)), TransformParams(b)


# Bitwise oracles on '0'/'1' text, written from the definition and sharing
# no code with the package's kernels.


def oracle_transform(text, b, padding=PaddingPolicy.ZERO_PAD):
    """XOR each non-pivot bit of every b-bit block with the pivot; drop the pivot."""
    if padding is PaddingPolicy.ZERO_PAD:
        text += "0" * (-len(text) % b)
    else:
        text = text[: len(text) - len(text) % b]
    pivot = (b - 1) // 2
    out = []
    for start in range(0, len(text), b):
        block = text[start : start + b]
        out += [str(int(block[i]) ^ int(block[pivot])) for i in range(b) if i != pivot]
    return "".join(out)


def oracle_forge(template_text, b, selector_text):
    """Per block: XOR the b-1 output bits with the selector bit, insert it as the pivot."""
    pivot = (b - 1) // 2
    out = []
    for k, sel in enumerate(selector_text):
        chunk = template_text[k * (b - 1) : (k + 1) * (b - 1)]
        bits = [str(int(c) ^ int(sel)) for c in chunk]
        out += bits[:pivot] + [sel] + bits[pivot:]
    return "".join(out)


def oracle_recovery_successes(bit_length, block_size, trials, seed):
    """The recovery study one trial at a time: a fresh stream generator and
    one transform and one inverse kernel call per trial."""
    n = bit_length // block_size
    successes = 0
    for trial in range(trials):
        rng = stream_rng(seed, f"trial/{trial}")
        original = rng.getrandbits(bit_length)
        template = transform_value(original, n, block_size)
        selector = rng.getrandbits(n)
        successes += invert_value(template, n, block_size, selector) == original
    return successes


# Block counts where the kernels change shape: every count up to 17 (one or
# two 8-block groups, where the compaction rounds and the byte pass start),
# both sides of every 8-block group boundary for up to 40 groups, and
# 2^k - 1, 2^k and 2^k + 1 for k up to 10.
kernel_block_counts = st.one_of(
    st.sampled_from(
        sorted(
            {n for k in range(1, 11) for n in (2**k - 1, 2**k, 2**k + 1)}
            | {n for g in range(1, 41) for n in (8 * g - 1, 8 * g, 8 * g + 1)}
            | set(range(1, 18))
        )
    ),
    st.integers(2, 300),
)


@st.composite
def kernel_features(draw):
    """(feature, params) aligning to a drawn block count, mostly not a multiple of b."""
    params = TransformParams(draw(every_odd_block_size), draw(padding_policies))
    b, nblocks = params.block_size, draw(kernel_block_counts)
    if params.padding is PaddingPolicy.ZERO_PAD:
        length = draw(st.integers((nblocks - 1) * b + 1, nblocks * b))
    else:
        length = draw(st.integers(nblocks * b, nblocks * b + b - 1))
    return BitString(draw(st.integers(0, (1 << length) - 1)), length), params


# The '.bits' codec as it was written on str: the writer's text and the
# reader's parse, sharing no code with the byte paths in blokit.bits.


def oracle_bits_file_text(bs, wrap=64):
    """wrap-digit slices of to_text() (one line if wrap <= 0), joined with '\n', plus '\n'."""
    text = bs.to_text()
    lines = [text[i : i + wrap] for i in range(0, len(text), wrap)] if wrap > 0 else [text]
    return "\n".join(lines or [""]) + "\n"


def oracle_read_bits_file(path):
    return from_text(path.read_text(encoding="utf-8"))


# The linkability study as it was first written: the users x devices table of
# stored payloads, with every pair in each row and column compared.


def oracle_link_rates(features, devices, seed, params, keyed_baseline):
    """(link_rate, cross_user_collision_rate, keyed_link_rate or None) from pairwise comparisons."""
    payloads = [transform(fv, params).data for fv in features]
    plain = [[p for _ in range(devices)] for p in payloads]
    stored = None
    if keyed_baseline:
        masks = [random_bits(payloads[0].length, seed, f"device-mask/{d}") for d in range(devices)]
        stored = [[row[d] ^ masks[d] for d in range(devices)] for row in plain]

    def match_rate(groups):
        pairs = [first == second for group in groups for first, second in combinations(group, 2)]
        return sum(pairs) / len(pairs)

    rates = match_rate(plain), match_rate(zip(*plain))
    return rates + (match_rate(stored) if stored is not None else None,)
