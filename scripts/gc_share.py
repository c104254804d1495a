#!/usr/bin/env python3
"""Print how much of a perfbench workload's op time the cyclic collector takes.

    python3 scripts/gc_share.py --workload scale --seconds 5 [--seed 1]

Builds the workload's inputs as perfbench does (`perfbench/workloads.py`,
read as it is), then runs whole passes over them in process, each in the
order perfbench's untraced worker draws for that pass, until `--seconds`
have gone by; at least one pass runs.  A `gc.callbacks` hook counts each
collection by generation and times it against the op it falls in.  For
each input it prints the median op time, the young (generation 0), middle
(1) and full (2) collections per op, and the collector's share of that
input's op time, then the same over all ops.  Times are wall time in this
process, not scaled to perfbench's reference speed.
"""

import argparse
import gc
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from workloads import WORKLOADS  # noqa: E402


class _Collections:
    """Collections and collector seconds, counted from `gc.callbacks`."""

    def __init__(self) -> None:
        self.counts = [0, 0, 0]
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.counts[info["generation"]] += 1


def _row(name: str, durations: list[float], counts: list[int], gc_s: float) -> str:
    ops = len(durations)
    young, middle, full = (c / ops for c in counts)
    share = gc_s / sum(durations)
    return (f"{name:32s} {statistics.median(durations) * 1e3:10.3f} {young:8.2f} {middle:8.3f} "
            f"{full:8.3f} {share:8.1%}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True, help="seconds of ops to aim for")
    parser.add_argument("--seed", type=int, default=1, help="perfbench's workload seed")
    args = parser.parse_args()

    inputs = WORKLOADS[args.workload].build(args.seed, False, ROOT)
    durations: list[list[float]] = [[] for _ in inputs]
    counts = [[0, 0, 0] for _ in inputs]
    gc_s = [0.0] * len(inputs)
    hook = _Collections()
    gc.callbacks.append(hook)
    try:
        start = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - start < args.seconds:
            order = list(range(len(inputs)))
            random.Random(args.seed * 7919 + passes).shuffle(order)  # perfbench worker's pass order
            for i in order:
                before, before_s = list(hook.counts), hook.seconds
                began = time.perf_counter()
                outcome = inputs[i].run()
                durations[i].append(time.perf_counter() - began)
                if outcome.verdict != inputs[i].expected:
                    print(f"error: {inputs[i].name} gave {outcome.verdict!r}, expected {inputs[i].expected!r}",
                          file=sys.stderr)
                    return 1
                counts[i] = [total + now - then for total, now, then in zip(counts[i], hook.counts, before)]
                gc_s[i] += hook.seconds - before_s
            passes += 1
    finally:
        gc.callbacks.remove(hook)

    print(f"workload {args.workload}, seed {args.seed}: {passes} passes, {sys.version.split()[0]}, "
          f"gc thresholds {gc.get_threshold()}")
    print(f"{'input':32s} {'median ms':>10s} {'young/op':>8s} {'mid/op':>8s} {'full/op':>8s} {'gc share':>8s}")
    for inp, d, c, s in zip(inputs, durations, counts, gc_s):
        print(_row(inp.name, d, c, s))
    every = [d for row in durations for d in row]
    total = [sum(c[g] for c in counts) for g in range(3)]
    print(_row("all ops", every, total, sum(gc_s)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
