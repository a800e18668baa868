"""Machine-speed calibration for the benchmark's times.

The machine this benchmark was built on shares its cores with other work:
the same Python code runs up to a third slower from one half-minute to the
next.  A SpeedProbe times a fixed reference loop before a timed block, every
`interval` seconds inside it (from a SIGALRM handler) and after it, with
the garbage collector off so that a collection of the caller's heap never
lands in a sample.  Its `calibrate` removes the in-block samples' own time
from a wall time and rescales the rest by the samples' median to a machine
that runs the reference loop in exactly REFERENCE_S: a time in calibrated
seconds.  A change to socd moves calibrated times as it moves wall times
(selftest.py checks this with an added delay), while most of a change in
the machine's speed cancels out (README.md gives the spreads with and
without).  Process CPU time does not do this: on the machine the benchmark
was built on it drifts with wall time (README.md).

Run as a script, it times `import socd.cli` in this fresh interpreter:

    python3 perfbench/probe.py src

and prints the wall and the calibrated seconds.  It imports only `gc`, `math`,
`signal` and `time` before socd (not `statistics`, which imports
`fractions`), so socd's own imports are all counted.
"""

from __future__ import annotations

import gc
import signal
import sys
import time
from math import gcd

REFERENCE_S = 0.001


def reference_loop() -> int:
    """Fixed work (~1 ms) of the kinds socd does: exact rational sums (by
    hand, so that `fractions` is not imported early), dicts, small
    frozensets and sorting.  Never calls socd."""
    num, den = 0, 1
    table: dict[int, int] = {}
    for i in range(1, 400):
        d = i % 97 + 1
        num, den = num * d + den, den * d
        g = gcd(num, den)
        num, den = num // g, den // g
        table[i % 509] = table.get(i % 389, 0) + len(frozenset((i, d, i % 7)))
    keys = sorted((i * 7919) % 10007 for i in range(600))
    return den % 1009 + len(table) + keys[-1]


class SpeedProbe:
    """Samples the reference loop around and, periodically, inside a block."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.inside_s = 0.0
        self._previous = None

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_loop()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        self.inside_s += time.perf_counter() - t0

    def __enter__(self) -> SpeedProbe:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def calibrate(self, wall: float) -> float:
        ordered = sorted(self.samples)
        mid = len(ordered) // 2
        median = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
        return (wall - self.inside_s) * REFERENCE_S / median


def _time_import(src: str) -> None:
    for _ in range(3):
        reference_loop()  # warm the loop up before it is sampled
    sys.path.insert(0, src)
    with SpeedProbe(0.01) as probe:
        t0 = time.perf_counter()
        import socd.cli  # noqa: F401
        wall = time.perf_counter() - t0
    print(repr(wall), repr(probe.calibrate(wall)))


if __name__ == "__main__":
    _time_import(sys.argv[1])
