"""The machine's speed, sampled while the benchmark measures.

On a shared host, other tenants slow every process by up to half, in
phases that last from seconds to minutes; a pure-Python loop then runs
between 1.0 and 1.6 times its quiet duration, with CPU time equal to wall
time, so no process-local clock removes it.  The benchmark therefore runs
a fixed reference computation next to the program and reports times
scaled to the reference's nominal speed:

    scaled = (wall - reference time inside the interval)
             * NOMINAL_S / mean reference duration in the interval

The reference is the benchmark's own code and imports nothing from
blockzero, so a change to blockzero moves the scaled times exactly as it
moves the work the program does.  It mixes the program's two kinds of
inner loop: a recursive search that pushes and pops running sums and
products, and block values built from tuples, sums and modular powers.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
NOMINAL_S = 0.0006  # about the reference's duration on a quiet 2-CPU Xeon sandbox


def reference() -> int:
    sums, prods, count = [0], [1], 0

    def search(depth):
        nonlocal count
        count += 1
        if depth == 0:
            return
        for a in range(1, 4):
            sums.append((sums[-1] + a) % 13)
            prods.append(prods[-1] * a % 13)
            if (sums[-1] + prods[-1]) % 5:
                search(depth - 1)
            sums.pop()
            prods.pop()

    search(7)
    period = (3, 5, 7, 11)
    for l in range(2, 200):
        values = tuple((sum(period[:l % 4]) + l) % 17 for _ in range(3))
        count += pow(7, l, 17) * values[0] % 17
    return count


def timed_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


class Sampler:
    """Runs the reference every INTERVAL_S from SIGALRM while active and
    records (start, duration) of each run."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0: float, t1: float) -> float:
        """The interval [t0, t1) less the reference runs inside it, scaled
        to nominal speed by the mean reference duration inside it (or over
        all samples, for an interval too short to hold one)."""
        inside = [d for start, d in self.samples if t0 <= start < t1]
        speed = statistics.fmean(inside or [d for _, d in self.samples] or [timed_reference()])
        return (t1 - t0 - sum(inside)) * NOMINAL_S / speed
