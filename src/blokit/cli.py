"""Command-line front door wiring the library into reproducible experiments.

Exit codes: 0 success or accept, 1 usage or internal error,
2 authentication reject, 3 capacity refusal.  Reports go to stdout,
diagnostics to stderr; every randomized subcommand requires --seed and is
byte-for-byte deterministic given its argument vector.

The process builds one argparse parser, on its first command, and reuses
it for every later one.  At the same moment it compiles lookup tables off
that parser's tree: the command words, and for each leaf command its
option strings, defaults, required options and mutually exclusive groups.
An argument vector in plain form (command words, then exact option
strings each given once, each value its own token not starting with '-'
and accepted by the option's type and choices) is turned into the
Namespace argparse would give, straight from the tables.  Every other
vector (help, abbreviations, '--opt=value', repeats, negative numbers,
every error) goes to argparse, which alone writes help, usage and error
text.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import NamedTuple

from . import bits
from .analysis import (
    fiber_census,
    linkability_study,
    recovery_probability,
    revocability_check,
)
from .attack import build_table, count_preimages, enumerate_preimages, forge
from .bits import BitString, FeatureVector, from_text, random_bits
from .errors import BlokitError, CapacityError, InvalidArgumentError, StorageError
from .matcher import match_templates
from .store import TemplateStore
from .transform import (
    PaddingPolicy,
    TransformParams,
    read_template_file,
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


def _add_policy_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--policy",
        choices=[p.value for p in PaddingPolicy],
        default=PaddingPolicy.ZERO_PAD.value,
        help="padding policy for inputs not a multiple of the block size",
    )


def _params(ns: argparse.Namespace) -> TransformParams:
    return TransformParams(ns.block_size, PaddingPolicy(ns.policy))


def build_parser() -> _Parser:
    parser = _Parser(prog="blokit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser("gen", help="generate a random feature vector file")
    p.add_argument("--bits", type=int, required=True, help="number of bits to draw")
    p.add_argument("--seed", type=int, required=True, help="64-bit master seed")
    p.add_argument("--out", required=True, help="output path (.bits text or .fbin packed)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("enroll", help="transform a feature file into a template file")
    p.add_argument("--in", dest="infile", required=True, help="feature file to transform")
    p.add_argument("--block-size", type=int, required=True, help="odd block size")
    _add_policy_flag(p)
    p.add_argument("--out", required=True, help="output template path (.blo)")
    p.set_defaults(func=_cmd_enroll)

    p = sub.add_parser("match", help="match a probe feature file against a template file")
    p.add_argument("--template", required=True, help="enrolled template (.blo)")
    p.add_argument("--probe", required=True, help="probe feature file")
    p.add_argument("--threshold", type=float, default=1.0, help="similarity threshold in [0,1]")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("table", help="print the output-block to preimage-pair table")
    p.add_argument("--block-size", type=int, required=True, help="odd block size in [3, 17]")
    p.set_defaults(func=_cmd_table)

    attack = sub.add_parser("attack", help="preimage attacks on template files")
    attack_sub = attack.add_subparsers(dest="attack_command", metavar="SUBCOMMAND")
    attack_sub.required = True

    p = attack_sub.add_parser("preimage", help="forge feature vectors that map to a template")
    p.add_argument("--template", required=True, help="target template (.blo)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--selector", help="per-block choice bits ('0'/'1' text, left-padded)")
    mode.add_argument("--random", action="store_true", help="draw a random selector (requires --seed)")
    mode.add_argument("--enumerate", action="store_true", help="list forgeries in ascending selector order")
    p.add_argument("--limit", type=int, help="cap for --enumerate")
    p.add_argument("--seed", type=int, help="64-bit seed for --random")
    p.add_argument("--out", help="write the forged feature file here instead of stdout")
    p.set_defaults(func=_cmd_attack_preimage)

    p = attack_sub.add_parser("verify", help="check that a probe transforms exactly to a template")
    p.add_argument("--template", required=True)
    p.add_argument("--probe", required=True)
    p.set_defaults(func=_cmd_attack_verify)

    analyze = sub.add_parser("analyze", help="run a security study and print its report")
    analyze_sub = analyze.add_subparsers(dest="analyze_command", metavar="SUBCOMMAND")
    analyze_sub.required = True

    p = analyze_sub.add_parser("census", help="exhaustive fiber census over a small input space")
    p.add_argument("--bits", type=int, required=True, help="input bit length (multiple of block size, <= 24)")
    p.add_argument("--block-size", type=int, required=True)
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=_cmd_analyze_census)

    p = analyze_sub.add_parser("recovery", help="Monte Carlo original-recovery probability")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--block-size", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze_recovery)

    p = analyze_sub.add_parser("link", help="cross-device linkability study")
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--devices", type=int, required=True)
    p.add_argument("--bits", type=int, default=1795, help="synthetic feature length")
    p.add_argument("--block-size", type=int, required=True)
    _add_policy_flag(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--keyed-baseline", action="store_true", help="also report the per-device XOR-mask control")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze_link)

    p = analyze_sub.add_parser("revoke", help="repeated re-enrollment revocability check")
    p.add_argument("--in", dest="infile", help="feature file to re-enroll")
    p.add_argument("--bits", type=int, help="length of a synthetic feature (with --seed)")
    p.add_argument("--seed", type=int, help="seed for the synthetic feature")
    p.add_argument("--attempts", type=int, required=True)
    p.add_argument("--block-size", type=int, required=True)
    _add_policy_flag(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze_revoke)

    store = sub.add_parser("store", help="enrollment store operations")
    store_sub = store.add_subparsers(dest="store_command", metavar="SUBCOMMAND")
    store_sub.required = True

    p = store_sub.add_parser("enroll", help="enroll a feature file under (device, user)")
    p.add_argument("--root", required=True, help="store root directory (created if missing)")
    p.add_argument("--device", required=True)
    p.add_argument("--user", required=True)
    p.add_argument("--in", dest="infile", required=True, help="feature file")
    p.add_argument("--block-size", type=int, required=True)
    _add_policy_flag(p)
    p.set_defaults(func=_cmd_store_enroll)

    p = store_sub.add_parser("auth", help="authenticate a probe against an enrollment")
    p.add_argument("--root", required=True)
    p.add_argument("--device", required=True)
    p.add_argument("--user", required=True)
    p.add_argument("--probe", required=True, help="probe feature file")
    p.add_argument("--threshold", type=float, default=1.0)
    p.set_defaults(func=_cmd_store_auth)

    p = store_sub.add_parser("list", help="list manifest entries in enrollment order")
    p.add_argument("--root", required=True)
    p.set_defaults(func=_cmd_store_list)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    # argparse keeps no state between parse_args calls, so one tree serves every run.
    return build_parser()


class _Leaf(NamedTuple):
    """A leaf command's parser, as the tables hold it."""

    # option string -> (dest, type (None for a flag), choices, the flag's const)
    options: "dict[str, tuple]"
    # every dest argparse sets for this command: defaults, func, command words
    defaults: "dict[str, object]"
    required: "tuple[str, ...]"
    # (member dests, whether one is required) per mutually exclusive group
    groups: "tuple[tuple[frozenset, bool], ...]"


def _compile(parser: argparse.ArgumentParser, inherited: "dict[str, object]") -> "dict | _Leaf | None":
    """The tables for ``parser``'s subtree: a dict of command word -> subtree, or a leaf.

    None stands for a parser with an action the tables do not model; its
    argument vectors all go to argparse.  Each level's dests override the
    level above, as argparse merges a subparser's namespace into its parent's.
    """
    defaults, options, required, sub = {}, {}, [], None
    for action in parser._actions:
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            defaults.setdefault(action.dest, action.default)
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            sub = action
            continue
        if type(action) is argparse._StoreAction and action.option_strings and action.nargs is None:
            spec = (action.dest, action.type or str, action.choices, None)
            # argparse passes a str default that no option replaced through the type.
            if isinstance(action.default, str):
                defaults[action.dest] = spec[1](action.default)
        elif isinstance(action, argparse._StoreConstAction) and action.option_strings:
            spec = (action.dest, None, None, action.const)
        else:
            return None
        options.update(dict.fromkeys(action.option_strings, spec))
        if action.required:
            required.append(action.dest)
    for dest, value in parser._defaults.items():
        defaults.setdefault(dest, value)
    defaults = {**inherited, **defaults}
    if sub is not None:
        if options or sub.dest is argparse.SUPPRESS:
            return None
        return {word: _compile(child, {**defaults, sub.dest: word}) for word, child in sub.choices.items()}
    groups = []
    for group in parser._mutually_exclusive_groups:
        members = group._group_actions
        # argparse counts a member as given only when its value is not its
        # default object.  A flag always counts; a value counts for sure
        # only when the default is None, so other defaults go to argparse.
        if any(a.nargs != 0 and a.default is not None for a in members):
            return None
        groups.append((frozenset(a.dest for a in members), group.required))
    return _Leaf(options, defaults, tuple(required), tuple(groups))


@functools.cache
def _tables():
    return _compile(_shared_parser(), {})


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
        except (TypeError, ValueError, argparse.ArgumentTypeError):
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


def _synthetic_feature(ns: argparse.Namespace) -> FeatureVector:
    """The --bits feature drawn from --seed; refused before any draw beyond the u32 length fields."""
    bits.refuse_beyond_u32(ns.bits)
    return FeatureVector(random_bits(ns.bits, ns.seed), provenance=f"seed={ns.seed}")


def _cmd_gen(ns: argparse.Namespace) -> int:
    bits.write_feature(ns.out, _synthetic_feature(ns))
    return EXIT_OK


def _cmd_enroll(ns: argparse.Namespace) -> int:
    fv = bits.read_feature(ns.infile)
    tpl = transform(fv, _params(ns))
    write_template_file(ns.out, tpl)
    print(f"blocks\t{tpl.block_count}")
    print(f"template_bits\t{tpl.data.length}")
    print(f"preimages\t{count_preimages(tpl)}")
    return EXIT_OK


def _cmd_match(ns: argparse.Namespace) -> int:
    tpl = read_template_file(ns.template)
    probe = bits.read_feature(ns.probe)
    decision = match_templates(transform(probe, tpl.params), tpl, ns.threshold)
    print(f"{decision.similarity:.6f}")
    return EXIT_OK if decision.accepted else EXIT_REJECT


def _cmd_table(ns: argparse.Namespace) -> int:
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
    candidate = transform(probe, tpl.params)
    valid = candidate.same_template(tpl)
    print(f"result\t{'valid' if valid else 'invalid'}")
    return EXIT_OK if valid else EXIT_REJECT


def _print_report(report, as_json: bool) -> None:
    print(report.to_json() if as_json else report.to_text())


def _cmd_analyze_census(ns: argparse.Namespace) -> int:
    _print_report(fiber_census(ns.bits, ns.block_size), ns.json)
    return EXIT_OK


def _cmd_analyze_recovery(ns: argparse.Namespace) -> int:
    _print_report(recovery_probability(ns.bits, ns.block_size, ns.trials, ns.seed), ns.json)
    return EXIT_OK


def _cmd_analyze_link(ns: argparse.Namespace) -> int:
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
    if ns.infile is not None:
        fv = bits.read_feature(ns.infile)
    elif ns.bits is not None and ns.seed is not None:
        fv = _synthetic_feature(ns)
    else:
        raise InvalidArgumentError("provide --in FILE, or --bits and --seed")
    _print_report(revocability_check(fv, _params(ns), ns.attempts), ns.json)
    return EXIT_OK


def _cmd_store_enroll(ns: argparse.Namespace) -> int:
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
    store = TemplateStore(ns.root)
    probe = bits.read_feature(ns.probe)
    decision = store.authenticate(ns.device, ns.user, probe, ns.threshold)
    print(f"{decision.similarity:.6f}")
    return EXIT_OK if decision.accepted else EXIT_REJECT


def _cmd_store_list(ns: argparse.Namespace) -> int:
    for e in TemplateStore(ns.root).list_records():
        print(e.to_line())
    return EXIT_OK


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
    with redirect_stdout(out_buf), redirect_stderr(err_buf):
        code = _dispatch(argv)
    return CommandOutcome(exit_code=code, stdout=out_buf.getvalue(), stderr=err_buf.getvalue())


def main(argv: "list[str] | None" = None) -> int:
    return _dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
