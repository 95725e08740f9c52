"""Call times in units of a reference loop timed beside them.

On a shared 2-CPU host one core's speed drifts by tens of percent over
seconds to minutes, and the drift slows all interpreted code much alike:
one GF(5), d = 4 search call of 2,000 trials, repeated for 40 seconds, took
from 26 to 52 ms as a median over successive 20-call chunks.
So the benchmark times a fixed pure-Python reference loop eight times a
second, from a SIGALRM handler on its own thread (the handler runs between
the program's bytecodes and touches none of its state), and expresses each
call's time, less the handler's own time, in the median duration of the
reference loop over the samples taken during the call, or over the WINDOW
samples nearest its midpoint when the call spans fewer.  The result is the call's cost in
reference loops ("ref").  Over five runs each, this cut the run-to-run
spread of fuzz-exhaustive's throughput from 0.09 to 0.03 of its median.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.125
WINDOW = 8  # reference samples a call's ref is taken over, at least


def _mix(a, b):
    return (a * b + 1) % 5


def reference_loop() -> int:
    """Fixed interpreted work in the program's style (small tuples, calls,
    modular arithmetic, a dict), about 3 ms on a 2 GHz core."""
    rows = [(i % 7, i % 5, i % 3) for i in range(64)]
    acc = 0
    for k in range(30):
        grid = tuple(tuple(_mix(x, y) for x, y in zip(r, rows[(j + k) % 64]))
                     for j, r in enumerate(rows))
        counts = {}
        for r in grid:
            counts[r] = counts.get(r, 0) + 1
        acc += len(counts)
    return acc


class RefClock:
    """Samples the reference loop while installed; `refs` converts a call's
    seconds into refs afterwards, from the samples around that call."""

    def __init__(self):
        self.times: list[float] = []  # sample start, ascending
        self.durations: list[float] = []
        self.handler_s = 0.0
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self.times.append(t0)
        self.durations.append(dt)
        self.handler_s += dt

    def __enter__(self):
        for _ in range(WINDOW // 2):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(WINDOW // 2):  # samples after the last call
            self._sample()
        return False

    def mark(self):
        return self.handler_s, time.perf_counter()

    def since(self, mark) -> tuple[float, tuple[float, float]]:
        """(seconds elapsed since `mark` without the handler's time, span)."""
        end = time.perf_counter()
        handler_s, start = mark
        return end - start - (self.handler_s - handler_s), (start, end)

    def refs(self, seconds: float, span: tuple[float, float]) -> float:
        start, end = span
        lo, hi = bisect.bisect_left(self.times, start), bisect.bisect_left(self.times, end)
        if hi - lo < WINDOW:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(mid - WINDOW // 2, len(self.times) - WINDOW))
            hi = lo + WINDOW
        return seconds / statistics.median(self.durations[lo:hi])


class WallClock:
    """The same interface for traced passes, which report plain seconds."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def mark(self):
        return time.perf_counter()

    def since(self, mark) -> tuple[float, None]:
        return time.perf_counter() - mark, None
