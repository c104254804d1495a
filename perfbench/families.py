"""Scalable input families, written as contract-language text.

Each builder takes the family parameters plus a `random.Random` drawn from
the workload seed and returns a `Family`: the contract texts, the service
repository text, the platform text and the verdict the family has by
construction.  The seed only draws best-case execution times, which no
negotiation analysis reads, so every seed yields the same search work and
the same verdict; `nego` sees nothing but the generated text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Family:
    name: str
    contracts: tuple[str, ...]
    repository: str
    platform: str
    expected: str  # first line `nego negotiate` would print
    why: str  # one-line argument for `expected`


def _platform(cpus: int) -> str:
    return "".join(f"resource R{i} type CPU\n" for i in range(cpus))


def _task(name: str, wcet: int, rng: random.Random) -> str:
    return f"      task {name} onto CPU wcet={wcet} bcet={rng.randint(1, wcet)}"


def indep(n: int, m: int, k: int, bound: int, period: int, wcet: int, rng: random.Random,
          expected: str, why: str) -> Family:
    """n components, each one periodic thread (period P, jitter 0) of k tasks
    with WCET w and a latency bound B on the thread, on m CPUs."""
    texts = []
    for i in range(n):
        lines = [f"component C{i:03d}", "  threads",
                 f"    thread main on time (period={period} jitter=0)"]
        lines += [_task(f"t{j}", wcet, rng) for j in range(k)]
        lines += ["  timings", f"    timing {bound} main"]
        texts.append("\n".join(lines) + "\n")
    return Family(f"indep({n},{m},{k},{bound},{period},{wcet})", tuple(texts), "", _platform(m),
                  expected, why)


def shared(n: int, m: int, rng: random.Random) -> Family:
    """Providers A and B of `svc` (one RPC entry task of WCET 2 each) and n
    periodic apps (period 100, two tasks of WCET 3, then `RPC svc.get()`,
    latency bound 20) on m CPUs."""
    if n < 3:
        raise ValueError("shared(n, m) is infeasible by construction only for n >= 3")
    texts = []
    for provider in ("A", "B"):
        texts.append("\n".join([
            f"component {provider}", "  services", "    provides svc", "  threads",
            "    thread svc_get on RPC svc.get()", _task("e", 2, rng)]) + "\n")
    for i in range(n):
        texts.append("\n".join([
            f"component P{i:03d}", "  services", "    requires svc", "  threads",
            "    thread main on time (period=100 jitter=0)",
            _task("t0", 3, rng), _task("t1", 3, rng), "      RPC svc.get()",
            "  timings", "    timing 20 main"]) + "\n")
    return Family(
        f"shared({n},{m})", tuple(texts), "service svc\n  method get ()\n", _platform(m),
        "No: exhausted",
        f"{n} apps but 2 providers: some provider task joins two chains, which the "
        "one-chain-per-task rule rejects for every connection choice",
    )


def deep(n: int, rng: random.Random) -> Family:
    """C0 is periodic with period 10N and calls s1 -> C1 -> ... -> C(N-1),
    one task each (WCET 1..5), all on one CPU."""
    period = 10 * n
    repo = "".join(f"service s{i:04d}\n  method get ()\n" for i in range(1, n))
    texts = ["\n".join([
        "component C0000", "  services", "    requires s0001", "  threads",
        f"    thread main on time (period={period} jitter=0)",
        _task("t", rng.randint(1, 5), rng), "      RPC s0001.get()",
        "  timings", f"    timing {period} main"]) + "\n"]
    for i in range(1, n):
        lines = [f"component C{i:04d}", "  services", f"    provides s{i:04d}"]
        if i + 1 < n:
            lines.append(f"    requires s{i + 1:04d}")
        lines += ["  threads", f"    thread serve on RPC s{i:04d}.get()", _task("t", rng.randint(1, 5), rng)]
        if i + 1 < n:
            lines.append(f"      RPC s{i + 1:04d}.get()")
        texts.append("\n".join(lines) + "\n")
    return Family(
        f"deep({n})", tuple(texts), repo, _platform(1), "Yes",
        f"one chain of {n} tasks of WCET <= 5 with nothing to interfere: latency <= {5 * n} "
        f"<= bound {period}, utilization <= 1/2; single provider per service",
    )


def wide(n: int, rng: random.Random) -> Family:
    """indep(n, 1, 2, 40n, 40n, 5): many independent chains that all pass on
    the first candidate."""
    return indep(
        n, 1, 2, 40 * n, 40 * n, 5, rng, "Yes",
        f"{n} chains of demand 10 on one CPU: utilization 1/4, and even the lowest "
        f"priority chain waits at most {10 * n} <= bound {40 * n} (no second activation)",
    )


def search_ladder(rng: random.Random, smoke: bool = False) -> list[Family]:
    """Exhausting and admitting instances where the constraint store does the work."""
    if smoke:
        return [shared(3, 2, rng), _indep_admit(4, rng)]
    return [
        shared(3, 1, rng),
        shared(3, 2, rng),
        shared(4, 2, rng),
        _indep_exhaust(6, rng),
        _indep_exhaust(7, rng),
        _indep_admit(4, rng),
        _indep_admit(5, rng),
    ]


def _indep_exhaust(n: int, rng: random.Random) -> Family:
    """indep(n, 1, 1, 8, 20, 2) for n >= 5 exhausts."""
    return indep(n, 1, 1, 8, 20, 2, rng, "No: exhausted",
                 f"one CPU: the thread of rank r waits for r higher ones, latency 2(r+1) > 8 "
                 f"for r >= 4, so at most 4 of the {n} threads meet the bound")


def _indep_admit(n: int, rng: random.Random) -> Family:
    """indep(n, 2, 2, 14, 24, 2) for n <= 6 admits: at most three threads of
    demand 4 per CPU wait at most 8 for the others, so latency <= 12 <= 14."""
    return indep(n, 2, 2, 14, 24, 2, rng, "Yes",
                 f"{n} threads of demand 4 split at most 3 per CPU: latency <= 12 <= 14, "
                 "utilization <= 12/24 per CPU")


def scale_ladder(rng: random.Random, smoke: bool = False) -> list[Family]:
    """Large systems admitted on the first candidate."""
    if smoke:
        return [deep(100, rng), wide(50, rng)]
    return [deep(100, rng), deep(200, rng), deep(300, rng), deep(400, rng),
            wide(50, rng), wide(100, rng), wide(200, rng)]
