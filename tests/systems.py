"""Scalable systems written as contract-language text, and a probe that
watches a constraint store from outside while `negotiate` drives it.

* indep(n, m, k, B, P, w): n components, each one periodic thread (period
  P, jitter 0) of k tasks with WCET w and a latency bound B on the thread,
  on m CPUs.
* shared(n, m): providers A and B of `svc` (one RPC entry task of WCET 2
  each) and n periodic apps (period 100, two tasks of WCET 3, then
  `RPC svc.get()`, bound 20) on m CPUs.  For n >= 3 some provider task
  joins two chains, which the one-chain-per-task rule rejects, so the
  search must exhaust.
* deep(n): C0 is periodic and calls s1 -> C1 -> ... -> C(n-1), one task
  each, on one CPU.
"""

from __future__ import annotations

from nego.dsl import load_software_model
from nego.model import Configuration, SystemModel, parse_platform
from nego.space import ConstraintStore


def _system(contracts: list[str], repository: str, cpus: int) -> SystemModel:
    platform = "".join(f"resource R{i} type CPU\n" for i in range(cpus))
    return SystemModel(load_software_model(contracts, repository), parse_platform(platform), None)


def indep(n: int, m: int, k: int, bound: int, period: int, wcet: int) -> SystemModel:
    texts = []
    for i in range(n):
        lines = [f"component C{i:03d}", "  threads", f"    thread main on time (period={period} jitter=0)"]
        lines += [f"      task t{j} onto CPU wcet={wcet} bcet=1" for j in range(k)]
        lines += ["  timings", f"    timing {bound} main"]
        texts.append("\n".join(lines) + "\n")
    return _system(texts, "", m)


def shared(n: int, m: int) -> SystemModel:
    texts = [
        f"component {p}\n  services\n    provides svc\n  threads\n"
        "    thread svc_get on RPC svc.get()\n      task e onto CPU wcet=2 bcet=1\n"
        for p in ("A", "B")
    ]
    for i in range(n):
        texts.append(
            f"component P{i:03d}\n  services\n    requires svc\n  threads\n"
            "    thread main on time (period=100 jitter=0)\n"
            "      task t0 onto CPU wcet=3 bcet=1\n      task t1 onto CPU wcet=3 bcet=1\n"
            "      RPC svc.get()\n  timings\n    timing 20 main\n"
        )
    return _system(texts, "service svc\n  method get ()\n", m)


def deep(n: int) -> SystemModel:
    repository = "".join(f"service s{i:04d}\n  method get ()\n" for i in range(1, n))
    texts = [
        f"component C0000\n  services\n    requires s0001\n  threads\n"
        f"    thread main on time (period={10 * n} jitter=0)\n"
        "      task t onto CPU wcet=1 bcet=1\n      RPC s0001.get()\n"
    ]
    for i in range(1, n):
        lines = [f"component C{i:04d}", "  services", f"    provides s{i:04d}"]
        if i + 1 < n:
            lines.append(f"    requires s{i + 1:04d}")
        lines += ["  threads", f"    thread serve on RPC s{i:04d}.get()", "      task t onto CPU wcet=1 bcet=1"]
        if i + 1 < n:
            lines.append(f"      RPC s{i + 1:04d}.get()")
        texts.append("\n".join(lines) + "\n")
    return _system(texts, repository, 1)


class StoreProbe:
    """Wraps ConstraintStore.next_candidate (install with monkeypatch) and
    records, per call, the store, the constraints it held on entry and the
    candidate it returned."""

    def __init__(self, monkeypatch) -> None:
        self.calls: list[tuple[ConstraintStore, tuple, Configuration | None]] = []
        original = ConstraintStore.next_candidate

        def next_candidate(store: ConstraintStore) -> Configuration | None:
            constraints = store.constraints
            candidate = original(store)
            self.calls.append((store, constraints, candidate))
            return candidate

        monkeypatch.setattr(ConstraintStore, "next_candidate", next_candidate)

    def rejections(self) -> list[tuple[Configuration, tuple]]:
        """Each candidate followed by another call on the same store, with
        the constraints that store held at that next call."""
        out = []
        for (store, _, candidate), (after, constraints, _) in zip(self.calls, self.calls[1:]):
            if after is store and candidate is not None:
                out.append((candidate, constraints))
        return out

    def candidates(self, store: ConstraintStore) -> list[Configuration]:
        return [c for s, _, c in self.calls if s is store and c is not None]

    def stores(self) -> list[ConstraintStore]:
        return list({id(s): s for s, _, _ in self.calls}.values())
