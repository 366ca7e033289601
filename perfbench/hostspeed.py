"""Process CPU time, scaled so that end-to-end times read as at one reference speed.

On a shared two-vCPU Xeon virtual machine the CPU speed seen by one process
drifts by up to 2x over seconds to minutes: the same fixed loop took 20 ms
to 37 ms within half a minute, and per-run medians of the same workload
spread by 20-40% between runs.  At times calls also stall for
milliseconds: for several minutes the 99th percentile of wall-clock call
latency tripled.

So every time the benchmark reports is the process's CPU time (user plus
system), which leaves out time the host takes the virtual CPU away (the
kernel accounts steal time apart) and time spent blocked; and it runs a
short fixed pure-Python probe between operations and divides each
operation's CPU time by the host's slowness around it (probe time over its
time at the reference speed).  Time spent blocked, for example waiting for
a disk, is not CPU time; the summary line's wall-clock figures show it.
"""

from __future__ import annotations

import bisect
import statistics
import time

CLOCK = time.process_time
CLOCK_NS = time.process_time_ns

# Duration of one _probe_work() call at the reference host speed.
PROBE_REF_NS = 2_500_000
# Probe at most this often between short operations.
INTERVAL_S = 0.05
# After this long without a probe, probe for longer to average out jitter.
LONG_GAP_S = 0.5


def _probe_work() -> int:
    total, table = 0, {}
    for i in range(20_000):
        total += i * i
        table[i & 255] = total
    return total


class HostSpeed:
    """Slowness samples over time, and times scaled by them."""

    def __init__(self) -> None:
        self.times: "list[float]" = []
        self.slowness: "list[float]" = []

    def probe(self, force: bool = False) -> None:
        """Sample the host's slowness, unless one was sampled very recently."""
        now = CLOCK()
        gap = now - self.times[-1] if self.times else LONG_GAP_S
        if gap < INTERVAL_S and not force:
            return
        runs = 25 if gap >= LONG_GAP_S else 3
        durations = []
        for _ in range(runs):
            t0 = CLOCK_NS()
            _probe_work()
            durations.append(CLOCK_NS() - t0)
        self.times.append(CLOCK())
        self.slowness.append(statistics.median(durations) / PROBE_REF_NS)

    def timed(self, segments: "list[tuple[float, float]]", fn, *args, **kwargs):
        """Probe if due, then call ``fn``; its (start, end) goes onto ``segments``."""
        self.probe()
        t0 = CLOCK()
        try:
            return fn(*args, **kwargs)
        finally:
            segments.append((t0, CLOCK()))

    def split(self, segments: "list[tuple[float, float]]", start: float) -> float:
        """End the segment begun at ``start``, probe if due; return the next start."""
        segments.append((start, CLOCK()))
        self.probe()
        return CLOCK()

    def around(self, t0: float, t1: float) -> float:
        """Mean slowness of the last sample before ``t0`` and the first after ``t1``."""
        before = bisect.bisect_right(self.times, t0) - 1
        after = bisect.bisect_left(self.times, t1)
        picked = [self.slowness[i] for i in (before, after) if 0 <= i < len(self.times)]
        return sum(picked) / len(picked) if picked else 1.0

    def scaled(self, segments: "list[tuple[float, float]]") -> float:
        """Seconds the segments would take at the reference speed."""
        return sum((t1 - t0) / self.around(t0, t1) for t0, t1 in segments)

    def median(self) -> float:
        return statistics.median(self.slowness) if self.slowness else 1.0
