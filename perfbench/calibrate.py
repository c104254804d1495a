"""Speed calibration against a fixed pure-Python loop.

On a shared 2-vCPU Xeon VM, speed changes by up to 2x from one few-second
window to the next (measured there: 3-second medians of one negotiation
ranged over 70-104 ms in 40 seconds, and over 74-79 ms once scaled by this
loop).
Every time the benchmark reports is therefore scaled to reference speed:
multiplied by REFERENCE_S over the loop's time measured next to it.  A time
at reference speed is the time on a machine where one loop takes
REFERENCE_S; on such a machine the figures are plain wall-clock times.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.002  # one loop at reference speed
LOOPS = 2  # a measurement is the fastest of this many loops


def _loop() -> int:
    """Hashing, tuples, frozensets, dicts and sorting: nego's staple work."""
    seen: dict = {}
    for i in range(1500):
        key = frozenset((i % 7, i % 11, (i * 3) % 13))
        seen[(i, key)] = tuple(sorted(key))
    return len(seen)


def measure() -> float:
    """Seconds one loop takes now."""
    best = float("inf")
    for _ in range(LOOPS):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


def scale(seconds: float, loop_s: float) -> float:
    """`seconds` measured while one loop took `loop_s`, at reference speed."""
    return seconds * REFERENCE_S / loop_s
