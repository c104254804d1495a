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
* remapped_chain_systems(seeds, resources): `random_chain_system` graphs
  under a mapping and priority order drawn again from each seed.
* every_release_check(seeds, cap): the sweep and the busy-window bound
  against every release on those systems with every task on one resource.

`RELAXATIONS` edits a parsed system in ways that can only make it easier
to admit, for metamorphic checks of the answer.

`negotiation_digest` hashes what negotiation prints over many systems, so a
change that must keep every output byte-identical can be checked at once.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace
from typing import Iterable

import nego.space
from nego.constraints import PriorityNogood
from nego.dsl import TaskStep, TimeActivation, load_software_model
from nego.model import Configuration, PlatformModel, Resource, SystemModel, parse_platform, render_configuration
from nego.negotiation import negotiate
from nego.randsys import random_chain_system, random_software_system
from nego.sim import default_horizon, worst_observed
from nego.space import ConstraintStore
from nego.taskgraph import NORMAL, build_task_graph
from nego.timing import BUSY_WINDOW, MODELS, chain_latency_bound
from oracles import exhaustive_worst_observed


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


def remapped_chain_systems(seeds: Iterable[int], resources: int = 3):
    """Per seed, the NORMAL graph of `random_chain_system` and a
    configuration with its mapping drawn again over R1 to R`resources` and
    its priority order shuffled, then the generator that drew them, all
    from the seed."""
    names = [f"R{i + 1}" for i in range(resources)]
    for seed in seeds:
        system = random_chain_system(random.Random(seed))
        graph = build_task_graph(system.software, system.config, NORMAL)
        rng = random.Random(seed)
        mapping = {task: rng.choice(names) for task in sorted(system.config.mapping)}
        order = list(system.config.priorities)
        rng.shuffle(order)
        yield graph, Configuration(system.config.selected, system.config.connections, mapping, tuple(order)), rng


def every_release_check(seeds: Iterable[int], cap: int):
    """Counts and mismatches of the sweep and the busy-window bound against
    every release (`exhaustive_worst_observed`, at most `cap` scenarios) on
    the `remapped_chain_systems` of `seeds` with every task on R1 and some
    jitter.  H is a system's default horizon and J_max its largest jitter.
    On each system that fits the cap at H, every span is checked for sweep
    <= every release at H, and a bounded one also for every release <=
    bound.  On each that fits at H + J_max too, every release there must
    reach each bound exactly; the spans left unbounded are only counted."""
    counts = dict.fromkeys(("jittered", "fit at H", "fit at H + J_max", "bounded spans", "unbounded spans"), 0)
    mismatches = []
    seeds = list(seeds)
    for seed, (graph, cfg, _) in zip(seeds, remapped_chain_systems(seeds, resources=1)):
        jitter = max(chain.event.jitter for chain in graph.chains)
        if not jitter:
            continue
        counts["jittered"] += 1
        horizon = default_horizon(graph)
        try:
            every = exhaustive_worst_observed(graph, cfg, horizon, cap)
        except ValueError:
            continue
        counts["fit at H"] += 1
        try:
            late = exhaustive_worst_observed(graph, cfg, horizon + jitter, cap)
            counts["fit at H + J_max"] += 1
        except ValueError:
            late = None
        ranks = cfg.ranks()
        for (root, span), seen in worst_observed(graph, cfg, horizon).items():
            bound = chain_latency_bound(graph.chain(root), span, graph, cfg, ranks, BUSY_WINDOW)
            at_h = every[(root, span)]
            ok = seen <= at_h and (bound is None or at_h <= bound)
            if late is not None:
                counts["unbounded spans" if bound is None else "bounded spans"] += 1
                ok = ok and (bound is None or late[(root, span)] == bound)
            if not ok:
                at_late = "" if late is None else f" and {late[(root, span)]} at H + J_max"
                mismatches.append(
                    f"seed={seed} span={root}{list(span)}: sweep {seen}, every release {at_h} at H{at_late}, bound {bound}"
                )
    return counts, mismatches


def _edited(system: SystemModel, task=None, activation=None, timing=None) -> SystemModel:
    """The system with every task step, periodic activation and timing
    requirement of its contracts passed through the edit given for it."""

    def thread(t):
        steps = tuple(task(s) if task and isinstance(s, TaskStep) else s for s in t.steps)
        periodic = activation and isinstance(t.activation, TimeActivation)
        return replace(t, steps=steps, activation=activation(t.activation) if periodic else t.activation)

    contracts = {
        name: c._replace(threads=tuple(map(thread, c.threads)), timings=tuple(map(timing or (lambda r: r), c.timings)))
        for name, c in system.software.contracts.items()
    }
    return system._replace(software=system.software._replace(contracts=contracts))


def _one_more_resource(system: SystemModel) -> SystemModel:
    resources = system.platform.resources
    extra = Resource(f"R{len(resources) + 1}", resources[0].rtype)
    assert all(r.name != extra.name for r in resources)
    return system._replace(platform=PlatformModel(resources + (extra,)))


# Edits of a parsed system that can only make it easier to admit: under
# either model no analysis answers worse after one (sustainability,
# Baruah & Burns, RTSS 2006), so a `Yes` must stay a `Yes`.
RELAXATIONS = {
    "wcet down to bcet": lambda system: _edited(system, task=lambda s: replace(s, wcet=s.bcet)),
    "bounds doubled": lambda system: _edited(system, timing=lambda r: replace(r, bound=2 * r.bound)),
    "periods doubled": lambda system: _edited(system, activation=lambda a: a._replace(period=2 * a.period)),
    "no jitter": lambda system: _edited(system, activation=lambda a: a._replace(jitter=0)),
    "one more resource": _one_more_resource,
}


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
    monkeypatch), and checks at each that the nogoods handed over are the
    learned nogoods whose context holds at the partial.
    `PriorityNogood.applies` raises meanwhile: the store must answer from
    its counts.  `checks` counts the checks by whether a nogood applied."""

    def __init__(self, monkeypatch) -> None:
        applies = PriorityNogood.applies
        original_candidates = ConstraintStore._candidates
        original_allows, original_synthesize = nego.space._allows, nego.space.synthesize_priorities
        at: dict = {}  # the store and the partial it searches
        self.checks = {"applied": 0, "none": 0}

        def handed(nogoods) -> None:
            partial = at["partial"]
            expected = {
                c for c in at["store"].constraints if isinstance(c, PriorityNogood) and applies(c, partial)
            }
            assert len(nogoods) == len(expected) and set(nogoods) == expected, partial
            self.checks["applied" if expected else "none"] += 1

        def candidates(store, partial, threads):
            at.update(store=store, partial=partial)
            return (yield from original_candidates(store, partial, threads))

        def allows(order, nogoods):
            handed(nogoods)
            return original_allows(order, nogoods)

        def synthesize(reverse, nogoods):
            handed(nogoods)
            return original_synthesize(reverse, nogoods)

        def refuse(nogood, cfg):
            raise AssertionError("PriorityNogood.applies called by the store")

        monkeypatch.setattr(ConstraintStore, "_candidates", candidates)
        monkeypatch.setattr(nego.space, "_allows", allows)
        monkeypatch.setattr(nego.space, "synthesize_priorities", synthesize)
        monkeypatch.setattr(PriorityNogood, "applies", refuse)
