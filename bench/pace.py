"""Interpreter-speed probe for a benchmark pass.

The host that defined the benchmark is shared, and its speed swings by up
to a factor of two within seconds: two passes of identical work took
2.9 s and 6.3 s minutes apart.  A wall-clock median over a 30 s run
cannot average that out.  So while a pass runs, a SIGALRM every INTERVAL_S
interrupts it for a fixed piece of pure-Python work (the stick, about
0.5 ms) and times it.  Each stretch of the pass between two interrupts is
divided by the stick time measured at its end, which gives the work done
in units of sticks; times reported by the benchmark are that work times
STICK_REF_S, the stick time of a fast phase on the defining host.  The
interrupts themselves are left out.  The stick imports nothing from gcx
and runs with the garbage collector off, so its time does not depend on
the program's heap.
"""

from __future__ import annotations

import atexit
import gc
import signal
import time

INTERVAL_S = 0.05
STICK_REF_S = 0.0005  # stick time in a fast phase of the defining host


def stick() -> int:
    counts: dict = {}
    for i in range(1500):
        key = (i % 61, i & 7)
        counts[key] = counts.get(key, 0) + i
    return len(sorted(counts))


class Probe:
    """Times the stick on a timer; scales intervals of the process's life."""

    def __init__(self):
        self.ticks: list[tuple[float, float, float]] = []  # (start, end, stick s)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        # a tick during interpreter shutdown, after the handler is gone,
        # would kill the process
        atexit.register(self.stop)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _tick(self, signum, frame) -> None:
        start = time.monotonic()
        collecting = gc.isenabled()
        gc.disable()
        before = time.perf_counter()
        stick()
        took = time.perf_counter() - before
        if collecting:
            gc.enable()
        self.ticks.append((start, time.monotonic(), took))

    def scaled(self, a: float, b: float) -> float:
        """Seconds at reference speed spent in [a, b] (time.monotonic()).

        A stretch before the first tick takes that tick's speed, one after
        the last tick takes the last tick's; time inside ticks is left out.
        """
        if not self.ticks:
            raise RuntimeError("no probe ticks: the interval is too short to scale")
        total, prev_end = 0.0, float("-inf")
        for start, end, took in self.ticks:
            lo, hi = max(a, prev_end), min(b, start)
            if hi > lo:
                total += (hi - lo) / took
            prev_end = end
            if start >= b:
                break
        else:
            lo = max(a, prev_end)
            if b > lo:
                total += (b - lo) / self.ticks[-1][2]
        return total * STICK_REF_S
