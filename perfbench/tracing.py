"""Spans recorded around blokit's public functions, from outside the package.

A :class:`Tracer` replaces every public function and public method of the
seven blokit modules with a wrapper, in every namespace where a caller looks
the name up: the defining module, the modules that imported it, the
``blokit`` package and any extra namespace given (the reproduce script).
Calls a module makes to its own globals go through the wrapper too, so a
span tree forms: each span keeps its name, start, end and parent index.
Private helpers are left alone, so their time is self time of the public
caller (for example the census kernels count as ``analysis``).

Span times are the process's CPU time, the clock of the end-to-end figures
(see hostspeed.py).  Spans stay in memory; :func:`write_spans` writes them
out at the end.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import math
import time
from pathlib import Path

MODULES = ("cli", "bits", "transform", "attack", "matcher", "store", "analysis")

# Span fields, in order.
NAME, START, END, PARENT, AMOUNT, TAG = range(6)


def _bits_in(args, result):
    return len(args[0]), ""


def _bits_out(args, result):
    return result.data.length, ""


def _feature_read(args, result):
    return result.data.length, Path(args[0]).suffix


def _feature_written(args, result):
    return args[1].data.length, Path(args[0]).suffix


# How much input a call carried, for the per-Mbit and growth metrics.
SIZERS = {
    "bits.read_feature": _feature_read,
    "bits.write_feature": _feature_written,
    "transform.transform": _bits_in,
    "attack.forge": _bits_out,
}

# Calls whose span amount is the bytes the process wrote during the call.
WRITE_COUNTED = {"store.TemplateStore.enroll"}


def _bytes_written() -> int:
    """Bytes this process has passed to write(2) so far (0 where unavailable)."""
    try:
        with open("/proc/self/io", encoding="ascii") as f:
            for line in f:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Tracer:
    """Installs span-recording wrappers; spans accumulate until written."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self._stack: "list[int]" = []
        self._patches: "list[tuple[object, str, object]]" = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.process_time_ns
        sizer = SIZERS.get(name)
        counts_writes = name in WRITE_COUNTED

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, 0, ""]
            stack.append(len(spans))
            spans.append(span)
            written = _bytes_written() if counts_writes else 0
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counts_writes:
                span[AMOUNT] = _bytes_written() - written
            elif sizer is not None:
                span[AMOUNT], span[TAG] = sizer(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self, package, extra_namespaces=()) -> None:
        """Wrap every public function and method of the blokit modules."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        for short, mod in zip(MODULES, modules):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrap(f"{short}.{attr}.{meth}", fn))
        for ns in [package, *modules, *extra_namespaces]:
            for attr, obj in list(vars(ns).items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:  # unhashable value
                    continue
                if wrapper is not None:
                    self._patch(ns, attr, wrapper)

    def _patch(self, ns, attr: str, wrapper) -> None:
        self._patches.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            ns, attr, original = self._patches.pop()
            setattr(ns, attr, original)


class SpanStats:
    """Per-name totals over a slice of spans: calls and self time; per tag, amounts and time."""

    def __init__(self, spans: "list[list]", start: int = 0, end: "int | None" = None) -> None:
        end = len(spans) if end is None else end
        child_ns = {}
        for span in spans[start:end]:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] = child_ns.get(span[PARENT], 0) + span[END] - span[START]
        self.calls: "dict[str, int]" = {}
        self.self_ns: "dict[str, int]" = {}
        # (name, tag) -> [calls, amount, inclusive ns]
        self.by_tag: "dict[tuple[str, str], list[int]]" = {}
        for index in range(start, end):
            span = spans[index]
            name, dur = span[NAME], span[END] - span[START]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_ns[name] = self.self_ns.get(name, 0) + dur - child_ns.get(index, 0)
            tagged = self.by_tag.setdefault((name, span[TAG]), [0, 0, 0])
            tagged[0] += 1
            tagged[1] += span[AMOUNT]
            tagged[2] += dur

    def module_self_ns(self, module: str) -> int:
        return sum(v for k, v in self.self_ns.items() if k.startswith(module + "."))

    def module_calls(self, module: str) -> int:
        return sum(v for k, v in self.calls.items() if k.startswith(module + "."))

    def tagged(self, name: str, tags=None) -> "tuple[int, int, int]":
        """(calls, amount, inclusive ns) of ``name`` summed over ``tags`` (all if None)."""
        calls = amount = ns = 0
        for (n, tag), (c, a, d) in self.by_tag.items():
            if n == name and (tags is None or tag in tags):
                calls, amount, ns = calls + c, amount + a, ns + d
        return calls, amount, ns


def growth_exponent(points: "list[tuple[int, float]]") -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def write_spans(path: Path, spans: "list[list]") -> None:
    """One JSON array per span: name, start_ns, end_ns, parent index, amount, tag."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
        for span in spans:
            f.write(json.dumps(span, separators=(",", ":")))
            f.write("\n")
