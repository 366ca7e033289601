"""Command-line front door wiring the library into reproducible experiments.

Exit codes: 0 success or accept, 1 usage or internal error,
2 authentication reject, 3 capacity refusal.  Reports go to stdout,
diagnostics to stderr; every randomized subcommand requires --seed and is
byte-for-byte deterministic given its argument vector.

Each command is declared once, in ``_COMMANDS``: its words, help and
handler, and per option its flag, dest, type, whether it is required, its
default, choices, help and mutually exclusive group.  Two readers walk
that declaration.  ``_tables`` makes lookup tables of it: the command
words, and for each leaf command its option strings, defaults, required
options and groups.  An argument vector in plain form (command words, then
exact option strings each given once, each value its own token not
starting with '-' and accepted by the option's type and choices) is turned
into the Namespace argparse would give, straight from the tables, and no
parser is built.  ``build_parser`` makes the argparse tree, once per
process, for every other vector (help, abbreviations, '--opt=value',
repeats, negative numbers, every error); argparse alone writes help, usage
and error text.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys
from collections import namedtuple
from dataclasses import dataclass

# attack, matcher, store and analysis are imported by the handlers that use
# them, so a fresh process loads only what its command needs.
from . import bits
from .bits import BitString, FeatureVector, from_text, random_bits
from .errors import BlokitError, CapacityError, InvalidArgumentError, StorageError
from .transform import (
    PaddingPolicy,
    TransformParams,
    read_template_file,
    template_payload,
    transform,
    write_template_file,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECT = 2
EXIT_CAPACITY = 3


@dataclass(frozen=True)
class CommandOutcome:
    exit_code: int
    stdout: str
    stderr: str


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with status 1, not 2."""

    def error(self, message: str) -> "None":
        self.exit(EXIT_ERROR, f"{self.format_usage()}blokit: error: {message}\n")


def _params(ns: argparse.Namespace) -> TransformParams:
    return TransformParams(ns.block_size, PaddingPolicy(ns.policy))


def _synthetic_feature(ns: argparse.Namespace) -> FeatureVector:
    """The --bits feature drawn from --seed; refused before any draw beyond the u32 length fields."""
    bits.refuse_beyond_u32(ns.bits)
    return FeatureVector(random_bits(ns.bits, ns.seed), provenance=f"seed={ns.seed}")


def _cmd_gen(ns: argparse.Namespace) -> int:
    bits.write_feature(ns.out, _synthetic_feature(ns))
    return EXIT_OK


def _cmd_enroll(ns: argparse.Namespace) -> int:
    from .attack import count_preimages

    fv = bits.read_feature(ns.infile)
    tpl = transform(fv, _params(ns))
    write_template_file(ns.out, tpl)
    print(f"blocks\t{tpl.block_count}")
    print(f"template_bits\t{tpl.data.length}")
    print(f"preimages\t{count_preimages(tpl)}")
    return EXIT_OK


def _cmd_match(ns: argparse.Namespace) -> int:
    from .matcher import match_probe

    tpl = read_template_file(ns.template)
    probe = bits.read_feature(ns.probe)
    decision = match_probe(probe, tpl, ns.threshold)
    print(f"{decision.similarity:.6f}")
    return EXIT_OK if decision.accepted else EXIT_REJECT


def _cmd_table(ns: argparse.Namespace) -> int:
    from .attack import build_table

    print(build_table(ns.block_size).render())
    return EXIT_OK


def _parse_selector(text: str, block_count: int) -> BitString:
    sel = from_text(text)
    if sel.length > block_count:
        raise InvalidArgumentError(
            f"selector has {sel.length} bits but the template has {block_count} blocks"
        )
    # Short selectors are the binary integer, left-padded with zeros.
    return BitString(sel.value, block_count)


def _cmd_attack_preimage(ns: argparse.Namespace) -> int:
    from .attack import enumerate_preimages, forge

    tpl = read_template_file(ns.template)
    if ns.enumerate:
        if ns.limit is None:
            raise InvalidArgumentError("--enumerate requires --limit")
        if ns.out is not None:
            raise InvalidArgumentError("--out supports single forgeries only")
        for fv in enumerate_preimages(tpl, ns.limit):
            print(fv.data.to_text())
        return EXIT_OK
    if ns.random:
        if ns.seed is None:
            raise InvalidArgumentError("--random requires --seed")
        selector = random_bits(tpl.block_count, ns.seed, "selector")
        print(f"selector\t{selector.to_text()}")
    else:
        selector = _parse_selector(ns.selector, tpl.block_count)
    fv = forge(tpl, selector)
    if ns.out is not None:
        bits.write_feature(ns.out, fv)
    else:
        print(fv.data.to_text())
    return EXIT_OK


def _cmd_attack_verify(ns: argparse.Namespace) -> int:
    tpl = read_template_file(ns.template)
    probe = bits.read_feature(ns.probe)
    # An exact payload compare, not match_probe: a probe of another length is
    # invalid, not a length error.
    valid = template_payload(probe, tpl.params) == tpl.data
    print(f"result\t{'valid' if valid else 'invalid'}")
    return EXIT_OK if valid else EXIT_REJECT


def _print_report(report, as_json: bool) -> None:
    print(report.to_json() if as_json else report.to_text())


def _cmd_analyze_census(ns: argparse.Namespace) -> int:
    from .analysis import fiber_census

    _print_report(fiber_census(ns.bits, ns.block_size), ns.json)
    return EXIT_OK


def _cmd_analyze_recovery(ns: argparse.Namespace) -> int:
    from .analysis import recovery_probability

    _print_report(recovery_probability(ns.bits, ns.block_size, ns.trials, ns.seed), ns.json)
    return EXIT_OK


def _cmd_analyze_link(ns: argparse.Namespace) -> int:
    from .analysis import linkability_study

    report = linkability_study(
        ns.users,
        ns.devices,
        _params(ns),
        ns.seed,
        keyed_baseline=ns.keyed_baseline,
        feature_bits=ns.bits,
    )
    _print_report(report, ns.json)
    return EXIT_OK


def _cmd_analyze_revoke(ns: argparse.Namespace) -> int:
    from .analysis import revocability_check

    if ns.infile is not None:
        fv = bits.read_feature(ns.infile)
    elif ns.bits is not None and ns.seed is not None:
        fv = _synthetic_feature(ns)
    else:
        raise InvalidArgumentError("provide --in FILE, or --bits and --seed")
    _print_report(revocability_check(fv, _params(ns), ns.attempts), ns.json)
    return EXIT_OK


def _cmd_store_enroll(ns: argparse.Namespace) -> int:
    from .store import TemplateStore

    fv, params, store = bits.read_feature(ns.infile), _params(ns), TemplateStore(ns.root)
    try:
        store.enroll_feature(ns.device, ns.user, fv, params)
    except StorageError:
        # enroll refuses bad input before it looks for the root, so a missing
        # root is made only for an enrollment nothing else refuses.
        if store.root.exists():
            raise
        store.root.mkdir(parents=True)
        store.enroll_feature(ns.device, ns.user, fv, params)
    return EXIT_OK


def _cmd_store_auth(ns: argparse.Namespace) -> int:
    from .store import TemplateStore

    store = TemplateStore(ns.root)
    probe = bits.read_feature(ns.probe)
    decision = store.authenticate(ns.device, ns.user, probe, ns.threshold)
    print(f"{decision.similarity:.6f}")
    return EXIT_OK if decision.accepted else EXIT_REJECT


def _cmd_store_list(ns: argparse.Namespace) -> int:
    from .store import TemplateStore

    for e in TemplateStore(ns.root).list_records():
        print(e.to_line())
    return EXIT_OK


# One option of a leaf command: stored through ``type``, or a store-true flag
# if ``type`` is bool.  ``choices``, ``help`` and ``group`` may be None.
# Options naming one group are mutually exclusive; a member's ``required`` is
# the group's: one member must be given.
_Opt = namedtuple("_Opt", "flag dest type required default choices help group")


def _opt(flag, help=None, *, type=str, required=False, default=None, choices=None, dest=None, group=None) -> _Opt:
    return _Opt(flag, dest or flag[2:].replace("-", "_"), type, required, default, choices, help, group)


_POLICY = _opt(
    "--policy",
    "padding policy for inputs not a multiple of the block size",
    choices=tuple(p.value for p in PaddingPolicy),
    default=PaddingPolicy.ZERO_PAD.value,
)

# Command words -> (help, handler, options), in help order, each group word
# (no handler, no options) before the commands under it.
_COMMANDS = {
    ("gen",): ("generate a random feature vector file", _cmd_gen, (
        _opt("--bits", "number of bits to draw", type=int, required=True),
        _opt("--seed", "64-bit master seed", type=int, required=True),
        _opt("--out", "output path (.bits text or .fbin packed)", required=True),
    )),
    ("enroll",): ("transform a feature file into a template file", _cmd_enroll, (
        _opt("--in", "feature file to transform", required=True, dest="infile"),
        _opt("--block-size", "odd block size", type=int, required=True),
        _POLICY,
        _opt("--out", "output template path (.blo)", required=True),
    )),
    ("match",): ("match a probe feature file against a template file", _cmd_match, (
        _opt("--template", "enrolled template (.blo)", required=True),
        _opt("--probe", "probe feature file", required=True),
        _opt("--threshold", "similarity threshold in [0,1]", type=float, default=1.0),
    )),
    ("table",): ("print the output-block to preimage-pair table", _cmd_table, (
        _opt("--block-size", "odd block size in [3, 17]", type=int, required=True),
    )),
    ("attack",): ("preimage attacks on template files", None, ()),
    ("attack", "preimage"): ("forge feature vectors that map to a template", _cmd_attack_preimage, (
        _opt("--template", "target template (.blo)", required=True),
        _opt("--selector", "per-block choice bits ('0'/'1' text, left-padded)", required=True, group="mode"),
        _opt("--random", "draw a random selector (requires --seed)", type=bool, required=True, group="mode"),
        _opt("--enumerate", "list forgeries in ascending selector order", type=bool, required=True, group="mode"),
        _opt("--limit", "cap for --enumerate", type=int),
        _opt("--seed", "64-bit seed for --random", type=int),
        _opt("--out", "write the forged feature file here instead of stdout"),
    )),
    ("attack", "verify"): ("check that a probe transforms exactly to a template", _cmd_attack_verify, (
        _opt("--template", required=True),
        _opt("--probe", required=True),
    )),
    ("analyze",): ("run a security study and print its report", None, ()),
    ("analyze", "census"): ("exhaustive fiber census over a small input space", _cmd_analyze_census, (
        _opt("--bits", "input bit length (multiple of block size, <= 24)", type=int, required=True),
        _opt("--block-size", type=int, required=True),
        _opt("--json", "emit the report as JSON", type=bool),
    )),
    ("analyze", "recovery"): ("Monte Carlo original-recovery probability", _cmd_analyze_recovery, (
        _opt("--bits", type=int, required=True),
        _opt("--block-size", type=int, required=True),
        _opt("--trials", type=int, required=True),
        _opt("--seed", type=int, required=True),
        _opt("--json", type=bool),
    )),
    ("analyze", "link"): ("cross-device linkability study", _cmd_analyze_link, (
        _opt("--users", type=int, required=True),
        _opt("--devices", type=int, required=True),
        _opt("--bits", "synthetic feature length", type=int, default=1795),
        _opt("--block-size", type=int, required=True),
        _POLICY,
        _opt("--seed", type=int, required=True),
        _opt("--keyed-baseline", "also report the per-device XOR-mask control", type=bool),
        _opt("--json", type=bool),
    )),
    ("analyze", "revoke"): ("repeated re-enrollment revocability check", _cmd_analyze_revoke, (
        _opt("--in", "feature file to re-enroll", dest="infile"),
        _opt("--bits", "length of a synthetic feature (with --seed)", type=int),
        _opt("--seed", "seed for the synthetic feature", type=int),
        _opt("--attempts", type=int, required=True),
        _opt("--block-size", type=int, required=True),
        _POLICY,
        _opt("--json", type=bool),
    )),
    ("store",): ("enrollment store operations", None, ()),
    ("store", "enroll"): ("enroll a feature file under (device, user)", _cmd_store_enroll, (
        _opt("--root", "store root directory (created if missing)", required=True),
        _opt("--device", required=True),
        _opt("--user", required=True),
        _opt("--in", "feature file", required=True, dest="infile"),
        _opt("--block-size", type=int, required=True),
        _POLICY,
    )),
    ("store", "auth"): ("authenticate a probe against an enrollment", _cmd_store_auth, (
        _opt("--root", required=True),
        _opt("--device", required=True),
        _opt("--user", required=True),
        _opt("--probe", "probe feature file", required=True),
        _opt("--threshold", type=float, default=1.0),
    )),
    ("store", "list"): ("list manifest entries in enrollment order", _cmd_store_list, (
        _opt("--root", required=True),
    )),
}


def build_parser() -> _Parser:
    """The argparse tree of ``_COMMANDS``: it alone writes help, usage and error text."""
    parser = _Parser(prog="blokit", description=__doc__.splitlines()[0])
    subparsers = {(): parser.add_subparsers(metavar="COMMAND", required=True)}
    for words, (summary, func, options) in _COMMANDS.items():
        p = subparsers[words[:-1]].add_parser(words[-1], help=summary)
        if func is None:
            subparsers[words] = p.add_subparsers(metavar="SUBCOMMAND", required=True)
            continue
        groups = {}
        for o in options:
            into, required = p, o.required
            if o.group is not None:
                if o.group not in groups:
                    groups[o.group] = p.add_mutually_exclusive_group(required=o.required)
                into, required = groups[o.group], False
            if o.type is bool:
                into.add_argument(o.flag, dest=o.dest, action="store_true", required=required, help=o.help)
            else:
                into.add_argument(o.flag, dest=o.dest, type=o.type, required=required, default=o.default,
                                  choices=o.choices, help=o.help)
        p.set_defaults(func=func)
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    # argparse keeps no state between parse_args calls, so one tree serves every run.
    return build_parser()


@functools.cache
def _tables() -> dict:
    """``_COMMANDS`` as lookup tables: a dict of command word -> subtree, or a leaf.

    A leaf is the tuple (option string -> (dest, type (None for a flag),
    choices, the flag's const); every dest argparse sets for the command,
    with its default; the required dests; (member dests, whether one is
    required) per mutually exclusive group).
    """
    root = {}
    for words, (_, func, options) in _COMMANDS.items():
        node = root
        for word in words[:-1]:
            node = node[word]
        if func is None:
            node[words[-1]] = {}
            continue
        flags, values, required, groups = {}, {}, [], {}
        for o in options:
            is_flag = o.type is bool
            flags[o.flag] = (o.dest, None, None, True) if is_flag else (o.dest, o.type, o.choices, None)
            values[o.dest] = False if is_flag else o.default
            if o.group is not None:
                groups.setdefault(o.group, (set(), o.required))[0].add(o.dest)
            elif o.required:
                required.append(o.dest)
        values["func"] = func
        groups = tuple((frozenset(members), one_required) for members, one_required in groups.values())
        node[words[-1]] = (flags, values, tuple(required), groups)
    return root


def _from_tables(argv) -> "argparse.Namespace | None":
    """The Namespace argparse gives for ``argv`` in plain form; None for any other ``argv``.

    Plain form: a list or tuple of str; the command words; then each option
    string exactly and once, each value its own token, not starting with
    '-', and accepted by the option's type and choices; required options
    given and group rules kept.
    """
    if not isinstance(argv, (list, tuple)):
        return None
    node, i, n = _tables(), 0, len(argv)
    while type(node) is dict:
        if i == n or type(argv[i]) is not str:
            return None
        node = node.get(argv[i])
        i += 1
    if node is None:
        return None
    options, values, required, groups = node
    values, given = dict(values), set()
    while i < n:
        opt = argv[i]
        spec = options.get(opt) if type(opt) is str else None
        if spec is None or spec[0] in given:
            return None
        dest, convert, choices, const = spec
        given.add(dest)
        i += 1
        if convert is None:
            values[dest] = const
            continue
        text = argv[i] if i < n else None
        if type(text) is not str or text.startswith("-"):
            return None
        try:
            value = convert(text)
        except (TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        i += 1
    if not given.issuperset(required):
        return None
    for members, one_required in groups:
        count = len(members & given)
        if count > 1 or (one_required and not count):
            return None
    ns = argparse.Namespace()
    vars(ns).update(values)
    return ns


def _dispatch(argv: "list[str]") -> int:
    ns = _from_tables(argv)
    if ns is None:
        try:
            ns = _shared_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return ns.func(ns)
    except CapacityError as exc:
        sys.stderr.write(f"blokit: capacity: {exc}\n")
        return EXIT_CAPACITY
    except (BlokitError, OSError) as exc:
        sys.stderr.write(f"blokit: error: {exc}\n")
        return EXIT_ERROR


def run(argv: "list[str]") -> CommandOutcome:
    """Run one command, capturing stdout/stderr instead of touching the process."""
    out_buf, err_buf = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out_buf, err_buf
    try:
        code = _dispatch(argv)
    finally:
        sys.stdout, sys.stderr = saved
    return CommandOutcome(exit_code=code, stdout=out_buf.getvalue(), stderr=err_buf.getvalue())


def main(argv: "list[str] | None" = None) -> int:
    return _dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
