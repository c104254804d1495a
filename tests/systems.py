"""Scalable systems written as contract-language text, and probes that
watch a constraint store from outside while `negotiate` drives it.

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
* revdl(n): n components C0000..., each one periodic thread (period 4n,
  one task of WCET 1) with bound n - i on C{i}, on one CPU.  The
  name-ordered priorities miss the bounds of the later half; the
  deadline-monotonic seed, which reverses them, meets every bound.

* random_fork_system(rng): periodic roots whose calls fan out as a tree of
  services, each called once, by RPC or by SIGNAL, with thread timings on
  roots and entry threads and method timings on calls, all configured.

`negotiation_digest` hashes what negotiation prints over many systems, so a
change that must keep every output byte-identical can be checked at once.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable

import nego.space
from nego.constraints import PriorityNogood
from nego.dsl import load_software_model
from nego.model import Configuration, SystemModel, parse_platform, render_configuration
from nego.negotiation import negotiate
from nego.randsys import random_software_system
from nego.space import ConstraintStore
from nego.timing import MODELS


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


def deep_texts(n: int) -> tuple[list[str], str]:
    """The contract texts and the service repository of deep(n)."""
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
    return texts, repository


def deep(n: int) -> SystemModel:
    return _system(*deep_texts(n), 1)


def revdl_texts(n: int) -> tuple[list[str], str]:
    """The contract texts and the (empty) service repository of revdl(n)."""
    texts = [
        f"component C{i:04d}\n  threads\n    thread main on time (period={4 * n} jitter=0)\n"
        f"      task t onto CPU wcet=1 bcet=1\n  timings\n    timing {n - i} main\n"
        for i in range(n)
    ]
    return texts, ""


def revdl(n: int) -> SystemModel:
    return _system(*revdl_texts(n), 1)


def random_fork_system(rng: random.Random) -> SystemModel:
    """Roots R0.. with a periodic thread `t`, and one provider P<i> per
    service s<i> whose entry thread `e` serves s<i>.m().  Each service is
    called by one step of a root or of a provider of an earlier service,
    so the calls form a tree: an RPC inlines the callee, a SIGNAL forks a
    chain.  Roots and entry threads hold random tasks around their calls,
    and some threads and calls carry one or two timing requirements; an
    entry thread an RPC calls may hold no task, so its spans are empty.
    The configuration selects everything, on one CPU."""
    roots = [f"R{i}" for i in range(rng.randint(1, 3))]
    providers = [f"P{i}" for i in range(rng.randint(1, 6))]
    calls: dict[str, list[tuple[str, str]]] = {name: [] for name in roots + providers}
    least = dict.fromkeys(roots, 1)  # tasks a thread needs: a chain's root needs one
    for i, provider in enumerate(providers):
        caller = rng.choice(roots + providers[:i])
        kind = rng.choice(["RPC", "RPC", "SIGNAL"])
        calls[caller].append((kind, f"s{i}"))
        least[provider] = int(kind == "SIGNAL")
    texts, connections, mapping = [], set(), {}
    for name in roots + providers:
        head = [f"component {name}", "  services"]
        if name in providers:
            head.append(f"    provides s{providers.index(name)}")
        head += [f"    requires {service}" for _, service in calls[name]]
        if len(head) == 2:
            head.pop()
        if name in roots:
            thread = f"    thread t on time (period={rng.choice([50, 100])} jitter={rng.randint(0, 2)})"
        else:
            thread = f"    thread e on RPC s{providers.index(name)}.m()"
        steps = [f"      {kind} {service}.m()" for kind, service in calls[name]]
        for k in range(rng.randint(least[name], 3)):
            steps.insert(rng.randint(0, len(steps)), f"      task x{k} onto CPU wcet={rng.randint(1, 3)} bcet=1")
            mapping[(name, f"x{k}")] = "R1"
        timings = []
        for target in ["t" if name in roots else "e"] + [f"{service}.m()" for _, service in calls[name]]:
            timings += [f"    timing {rng.randint(5, 60)} {target}" for _ in range(rng.choice([0, 0, 1, 2]))]
        texts.append("\n".join(head + ["  threads", thread] + steps + (["  timings"] + timings if timings else [])) + "\n")
        connections |= {(name, service, f"P{service[1:]}") for _, service in calls[name]}
    repository = "".join(f"service s{i}\n  method m ()\n" for i in range(len(providers)))
    threads = tuple((name, "t") for name in roots) + tuple((name, "e") for name in providers)
    cfg = Configuration(frozenset(roots + providers), frozenset(connections), mapping, threads)
    return SystemModel(load_software_model(texts, repository), parse_platform("resource R1 type CPU\n"), cfg)


def ladder() -> list[SystemModel]:
    """The search and scale rungs whose negotiation output is pinned."""
    return [shared(3, 1), shared(3, 2), indep(6, 1, 1, 8, 20, 2), indep(5, 2, 2, 14, 24, 2), deep(50), revdl(50)]


def negotiation_digest(systems: Iterable[SystemModel]) -> str:
    """SHA-256 over every system negotiated under both models: the trace
    text, the answer line, the learned constraints in order and, on a Yes,
    the report and the configuration.  None of it depends on the hash
    seed; `repr(answer)` would, through frozenset order."""
    digest = hashlib.sha256()
    for system in systems:
        for model in MODELS:
            answer, trace = negotiate(system, [], model=model)
            parts = [trace.text(), "Yes" if answer.ok else f"No: {answer.reason}"]
            parts += [str(c) for c in answer.constraints]
            if answer.ok:
                parts += [*answer.report, render_configuration(answer.config)]
            digest.update(("\n".join(parts) + "\n").encode())
    return digest.hexdigest()


def random_systems(seeds: int) -> Iterable[SystemModel]:
    return (random_software_system(random.Random(seed)) for seed in range(seeds))


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


class NogoodProbe:
    """Wraps the store's search of one structural partial and the two
    places its nogoods go, the baseline check and synthesis (install with
    monkeypatch), and checks at each that the nogoods handed over at the
    partial so far are the learned nogoods whose context holds there.
    `PriorityNogood.applies` raises meanwhile: the store must answer from
    its counts.  `checks` counts the checks by whether a nogood applied."""

    def __init__(self, monkeypatch) -> None:
        applies = PriorityNogood.applies
        original_candidates = ConstraintStore._candidates
        original_allows, original_synthesize = nego.space._allows, nego.space.synthesize_priorities
        at: dict = {}  # the store, the partial it searches and the nogoods handed there so far
        self.checks = {"applied": 0, "none": 0}

        def handed(nogoods) -> None:
            at["given"].update(nogoods)
            partial = at["partial"]
            expected = {
                c for c in at["store"].constraints if isinstance(c, PriorityNogood) and applies(c, partial)
            }
            assert at["given"] == expected, partial
            self.checks["applied" if expected else "none"] += 1

        def candidates(store, partial, threads):
            at.update(store=store, partial=partial, given=set())
            return (yield from original_candidates(store, partial, threads))

        def allows(order, nogoods):
            handed(nogoods)
            return original_allows(order, nogoods)

        def synthesize(search, nogoods):
            handed(nogoods)
            return original_synthesize(search, nogoods)

        def refuse(nogood, cfg):
            raise AssertionError("PriorityNogood.applies called by the store")

        monkeypatch.setattr(ConstraintStore, "_candidates", candidates)
        monkeypatch.setattr(nego.space, "_allows", allows)
        monkeypatch.setattr(nego.space, "synthesize_priorities", synthesize)
        monkeypatch.setattr(PriorityNogood, "applies", refuse)
