"""The four benchmark workloads, each driving blokit through its public API.

A workload object is built by the set-up step (inputs drawn from the
benchmark seed, nothing else) and then runs numbered rounds.  Every round
checks the outputs it gets and returns a :class:`Round`: the timed
segments of each unit operation, the work it completed and the segments
that work took.  Calls are timed through ``HostSpeed.timed``, which probes
the host's speed between them.  blokit sees only the generated inputs,
never the seed.
"""

from __future__ import annotations

import importlib.util
import io
import random
import re
import shutil
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import CLOCK, HostSpeed

Segments = "list[tuple[float, float]]"

HERE = Path(__file__).resolve().parent
SCRIPT_MODULE = "reproduce_findings"
BLOCK_SIZE = 5
FEATURE_BITS = 1795  # the paper's feature length: 359 blocks of 5 bits


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is the benchmark, TOY only serves the smoke check."""

    large_bits: int
    sweep_bits: "tuple[int, ...]"
    users: int
    studies_args: "tuple[str, ...]"
    studies_reference: str


FULL = Scale(
    large_bits=262_140,  # 2^18 rounded down to whole 5-bit blocks
    sweep_bits=(16_380, 65_535, 262_140),
    users=1000,
    studies_args=("--full-census",),
    studies_reference="studies_full.txt",
)
TOY = Scale(
    large_bits=4095,
    sweep_bits=(1020, 4095, 16_380),
    users=40,
    studies_args=("--forgeries", "20", "--trials", "2000"),
    studies_reference="studies_toy.txt",
)


@dataclass
class Env:
    root: Path
    workdir: Path
    blokit: object
    cli: object
    speed: HostSpeed


@dataclass
class Round:
    """One round's outcome: ``work`` units were done in ``work_segments``."""

    wall_s: float = 0.0
    ops: "list[Segments]" = field(default_factory=list)
    work: float = 0.0
    work_segments: Segments = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _report_failure(what: str, exc: BaseException) -> None:
    sys.stderr.write(f"perfbench: {what} failed: {type(exc).__name__}: {exc}\n")


class Quickstart:
    """The README quick start through ``blokit.cli.run``, one victim per round.

    The unit operation is one ``cli.run`` call; the unit of work is one
    victim (a completed five-call attack).  Pairs of victims alternate
    between ``.bits`` and ``.fbin`` files, so that both formats occur in
    the traced and in the untraced rounds of a traced run.
    """

    collect_between_rounds = False
    namespaces = ()  # extra namespaces the tracer patches
    victim_pool = 1024

    def __init__(self, env: Env, seed: int, scale: Scale) -> None:
        rng = random.Random(f"quickstart/{seed}")
        self.cli, self.speed = env.cli, env.speed
        self.victims = [(rng.getrandbits(63), rng.getrandbits(63)) for _ in range(self.victim_pool)]
        self.dir = env.workdir
        blocks = FEATURE_BITS // BLOCK_SIZE
        self.enroll_report = (
            f"blocks\t{blocks}\ntemplate_bits\t{blocks * (BLOCK_SIZE - 1)}\npreimages\t2^{blocks}\n"
        )
        self.selector_line = re.compile(f"selector\t[01]{{{blocks}}}\n")

    def round(self, index: int) -> Round:
        feature_seed, selector_seed = self.victims[index % len(self.victims)]
        ext = ".bits" if index // 2 % 2 == 0 else ".fbin"
        feature, forged = str(self.dir / f"feature{ext}"), str(self.dir / f"forged{ext}")
        template = str(self.dir / "template.blo")
        calls = [
            (["gen", "--bits", str(FEATURE_BITS), "--seed", str(feature_seed), "--out", feature], ""),
            (["enroll", "--in", feature, "--block-size", str(BLOCK_SIZE), "--out", template],
             self.enroll_report),
            (["attack", "preimage", "--template", template, "--random",
              "--seed", str(selector_seed), "--out", forged], self.selector_line),
            (["match", "--template", template, "--probe", forged], "1.000000\n"),
            (["attack", "verify", "--template", template, "--probe", forged], "result\tvalid\n"),
        ]
        result = Round(work=1.0)
        start = time.perf_counter()
        for argv, expected in calls:
            segments = []
            try:
                # Looked up per call, so that a traced run sees the wrapped function.
                outcome = self.speed.timed(segments, self.cli.run, argv)
            except Exception as exc:  # count the call as failed, keep measuring
                _report_failure(argv[0], exc)
                outcome = None
            result.ops.append(segments)
            result.work_segments += segments
            result.attempted += 1
            if outcome is None or outcome.exit_code != 0 or not (
                expected.fullmatch(outcome.stdout) if isinstance(expected, re.Pattern)
                else outcome.stdout == expected
            ):
                result.failed += 1
        result.wall_s = time.perf_counter() - start
        return result


def feature_pipeline(env: Env, bits, selector, segments: Segments) -> bool:
    """write .bits -> read -> transform -> .blo round trip -> forge -> transform -> match.

    Each step is one segment; the checks are not timed.
    """
    bl, timed = env.blokit, env.speed.timed
    params = bl.TransformParams(BLOCK_SIZE)
    feature_path, template_path = env.workdir / "large.bits", env.workdir / "large.blo"
    feature = bl.FeatureVector(bits)
    timed(segments, bl.write_feature, feature_path, feature)
    decoded = timed(segments, bl.read_feature, feature_path)
    template = timed(segments, bl.transform, decoded, params)
    timed(segments, bl.write_template_file, template_path, template)
    stored = timed(segments, bl.read_template_file, template_path)
    forged = timed(segments, bl.forge, stored, selector)
    again = timed(segments, bl.transform, forged, params)
    decision = timed(segments, bl.match_templates, again, stored)
    # The forgery lives in the padded domain: compare as templates, not with ==.
    return (
        decoded.data == bits
        and stored == template
        and again.same_template(stored)
        and decision.accepted
    )


def random_input(bl, rng: random.Random, n_bits: int):
    """A feature of ``n_bits`` and a forging selector with one bit per block."""
    blocks = -(-n_bits // BLOCK_SIZE)
    return bl.BitString(rng.getrandbits(n_bits), n_bits), bl.BitString(rng.getrandbits(blocks), blocks)


class LargeFeature:
    """The library attack pipeline on one 2^18-bit feature per round, no CLI.

    The unit operation is one pass through :func:`feature_pipeline`; the
    unit of work is one Mbit of feature carried through it.
    """

    collect_between_rounds = True
    namespaces = ()  # extra namespaces the tracer patches
    pool = 2

    def __init__(self, env: Env, seed: int, scale: Scale) -> None:
        rng = random.Random(f"large-feature/{seed}")
        self.env = env
        self.inputs = [random_input(env.blokit, rng, scale.large_bits) for _ in range(self.pool)]

    def round(self, index: int) -> Round:
        bits, selector = self.inputs[index % len(self.inputs)]
        segments = []
        start = time.perf_counter()
        try:
            ok = feature_pipeline(self.env, bits, selector, segments)
        except Exception as exc:
            _report_failure("feature pipeline", exc)
            ok = False
        return Round(wall_s=time.perf_counter() - start, ops=[segments], work=bits.length / 1e6,
                     work_segments=segments, attempted=1, failed=0 if ok else 1)


def sweep(env: Env, seed: int, scale: Scale) -> "tuple[int, int]":
    """The feature pipeline once at each size rung, for the growth fits.

    Returns (attempted, failed).
    """
    rng = random.Random(f"sweep/{seed}")
    failed = 0
    for n_bits in scale.sweep_bits:
        bits, selector = random_input(env.blokit, rng, n_bits)
        try:
            ok = feature_pipeline(env, bits, selector, [])
        except Exception as exc:
            _report_failure(f"sweep at {n_bits} bits", exc)
            ok = False
        failed += not ok
    return len(scale.sweep_bits), failed


class StoreFill:
    """Writes beside reads on a fresh TemplateStore in every round.

    Enroll every user across four devices, re-enroll a quarter with a new
    feature (update in place), authenticate every user with the genuine
    feature and with a forgery built from the stored template, then list
    the manifest.  The unit operation is one ``authenticate`` call; the
    unit of work is one enrollment, re-enrollments included.
    """

    collect_between_rounds = True
    namespaces = ()  # extra namespaces the tracer patches
    devices = 4
    first_enrolled_at = 1_700_000_000

    def __init__(self, env: Env, seed: int, scale: Scale) -> None:
        rng = random.Random(f"store-fill/{seed}")
        bl = self.bl = env.blokit
        self.dir, self.speed = env.workdir, env.speed
        self.params = bl.TransformParams(BLOCK_SIZE)
        self.keys = [(f"dev{u % self.devices}", f"user{u:05d}") for u in range(scale.users)]

        def feature():
            return bl.FeatureVector(bl.BitString(rng.getrandbits(FEATURE_BITS), FEATURE_BITS))

        first = [feature() for _ in self.keys]
        reenrolled = sorted(rng.sample(range(scale.users), scale.users // 4))
        blocks = -(-FEATURE_BITS // BLOCK_SIZE)
        self.selectors = [bl.BitString(rng.getrandbits(blocks), blocks) for _ in self.keys]
        # (user index, feature, enrolled_at) in enrollment order
        self.enrollments = [(u, fv, self.first_enrolled_at + u) for u, fv in enumerate(first)]
        self.current = list(first)
        self.stamps = [self.first_enrolled_at + u for u in range(scale.users)]
        for k, u in enumerate(reenrolled):
            fv, stamp = feature(), self.first_enrolled_at + scale.users + k
            self.enrollments.append((u, fv, stamp))
            self.current[u], self.stamps[u] = fv, stamp

    def _expected_records(self) -> list:
        return [
            (device, user, f"{device}/{user}.blo", BLOCK_SIZE, FEATURE_BITS, stamp)
            for (device, user), stamp in zip(self.keys, self.stamps)
        ]

    def round(self, index: int) -> Round:
        root = self.dir / f"store{index}"
        root.mkdir()
        store = self.bl.TemplateStore(root)
        result = Round(work=len(self.enrollments))
        timed = self.speed.timed
        start = time.perf_counter()
        for u, fv, stamp in self.enrollments:
            device, user = self.keys[u]
            result.attempted += 1
            try:
                timed(result.work_segments, store.enroll_feature, device, user, fv, self.params,
                      enrolled_at=stamp)
            except Exception as exc:
                _report_failure("enroll", exc)
                result.failed += 1
        for u, (device, user) in enumerate(self.keys):
            for forged in (False, True):
                result.attempted += 1
                try:
                    probe = self.current[u]
                    if forged:
                        probe = self.bl.forge(store.load_template(device, user), self.selectors[u])
                    segments = []
                    decision = timed(segments, store.authenticate, device, user, probe)
                    result.ops.append(segments)
                    ok = decision.accepted
                except Exception as exc:
                    _report_failure("authenticate", exc)
                    ok = False
                result.failed += not ok
        result.attempted += 1
        try:
            records = [
                (e.device_id, e.user_id, e.filename, e.block_size, e.original_length, e.enrolled_at)
                for e in store.list_records()
            ]
            ok = records == self._expected_records()
        except Exception as exc:
            _report_failure("list_records", exc)
            ok = False
        result.failed += not ok
        result.wall_s = time.perf_counter() - start
        shutil.rmtree(root)
        return result


REFERENCE_SEED = 2026
_ELAPSED = re.compile(r"elapsed_seconds\t\d+\.\d\d")


def _reseeded(want: "list[str]", got: "list[str]", seed: int) -> "list[str] | None":
    """The reference transcript as it must read for another seed.

    Only the recovery study's success count depends on the seed; every
    value derived from it is recomputed here from the reported count.
    """
    ref = dict(line.split("\t", 1) for line in want if "\t" in line)
    trials = int(ref["param.trials"])
    analytic, std_error = float(ref["finding.analytic_rate"]), float(ref["finding.std_error"])
    reported = [line.split("\t", 1)[1] for line in got if line.startswith("finding.successes\t")]
    if len(reported) != 1 or not reported[0].isdigit() or int(reported[0]) > trials:
        return None
    successes = int(reported[0])
    rate = successes / trials
    within = "true" if abs(rate - analytic) <= 3.0 * std_error else "false"
    out = []
    for line in want:
        key = line.split("\t", 1)[0]
        if key in ("seed", "param.seed"):
            line = f"{key}\t{seed}"
        elif key == "finding.successes":
            line = f"{key}\t{successes}"
        elif key == "finding.empirical_rate":
            line = f"{key}\t{rate!r}"
        elif key == "finding.within_3_std_errors":
            line = f"{key}\t{within}"
        elif line.startswith("verdict\tforging with a random selector"):
            line = re.sub(r"in \d+/(\d+) trials \(rate [^)]*\)",
                          lambda m: f"in {successes}/{m.group(1)} trials (rate {rate!r})", line)
        out.append(line)
    return out


def transcript_ok(text: str, reference: str, seed: int) -> bool:
    """Equal to the reference transcript, bar the elapsed time and the seed's effects."""
    got, want = text.splitlines(), reference.splitlines()
    if len(got) != len(want):
        return False
    if seed != REFERENCE_SEED:
        want = _reseeded(want, got, seed)
        if want is None:
            return False
    return all(
        g == w or (w.startswith("elapsed_seconds\t") and _ELAPSED.fullmatch(g))
        for g, w in zip(got, want)
    )


class Studies:
    """``scripts/reproduce_findings.py --full-census``, in process, stdout captured.

    Round 0 uses the seed the stored reference transcript was made with and
    must match it exactly; later rounds draw their seed from the benchmark
    seed.  The unit operation and the unit of work are one full run.
    """

    collect_between_rounds = True
    seed_pool = 256
    # The script's calls at which its run is split into timed segments, so
    # that the host speed is probed between the studies.
    split_before = ("fiber_census", "recovery_probability", "linkability_study",
                    "revocability_check")

    def __init__(self, env: Env, seed: int, scale: Scale) -> None:
        rng = random.Random(f"studies/{seed}")
        path = env.root / "scripts" / "reproduce_findings.py"
        spec = importlib.util.spec_from_file_location(SCRIPT_MODULE, path)
        self.script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.script)
        self.reference = (HERE / scale.studies_reference).read_text(encoding="utf-8")
        self.seeds = [REFERENCE_SEED] + [rng.getrandbits(32) for _ in range(self.seed_pool - 1)]
        self.args = scale.studies_args
        self.speed = env.speed
        self.namespaces = (self.script,)

    def round(self, index: int) -> Round:
        seed = self.seeds[index % len(self.seeds)]
        argv = [SCRIPT_MODULE + ".py", "--seed", str(seed), *self.args]
        saved_argv, sys.argv = sys.argv, argv
        buf = io.StringIO()
        segments = []
        split = self.speed.split
        next_start = [0.0]

        def split_first(fn):
            def call(*args, **kwargs):
                next_start[0] = split(segments, next_start[0])
                return fn(*args, **kwargs)
            return call

        originals = {name: getattr(self.script, name) for name in self.split_before}
        for name, fn in originals.items():
            setattr(self.script, name, split_first(fn))
        start = time.perf_counter()
        try:
            with redirect_stdout(buf):
                self.speed.probe()
                next_start[0] = CLOCK()
                self.script.main()
                segments.append((next_start[0], CLOCK()))
            ok = True
        except Exception as exc:
            _report_failure("reproduce_findings", exc)
            ok = False
        finally:
            sys.argv = saved_argv
            for name, fn in originals.items():
                setattr(self.script, name, fn)
        ok = ok and transcript_ok(buf.getvalue(), self.reference, seed)
        return Round(wall_s=time.perf_counter() - start, ops=[segments], work=1.0,
                     work_segments=segments, attempted=1, failed=0 if ok else 1)


WORKLOADS = {
    "quickstart": Quickstart,
    "large-feature": LargeFeature,
    "store-fill": StoreFill,
    "studies": Studies,
}
