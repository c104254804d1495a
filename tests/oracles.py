"""Brute-force references the real implementation is checked against.

`feasible` answers the same question as negotiation by exhaustive search:
every reachable connection assignment, every type-compatible mapping,
every priority permutation.  No learned constraints, no pruning.
`reference_simulate` and `reference_worst_observed` step the schedule one
time unit at a time, as plainly as possible, for the event-driven simulator.
`reference_synthesize` walks every priority permutation for the
backtracking priority synthesis.
"""

from __future__ import annotations

import itertools

from nego.constraints import PriorityPrecedence
from nego.controlflow import check_control_flow
from nego.model import Configuration, SystemModel, pinned_components
from nego.sim import ReleaseScenario
from nego.taskgraph import GraphError, INITIALIZATION, NORMAL, build_task_graph
from nego.timing import _seed_key, check_timing


def assignments(software, pinned):
    """Every complete connection assignment over reachable selections."""

    def expand(selected, conns, pending):
        pending = list(pending)
        for client in sorted(selected):
            for svc in sorted(software.contracts[client].requires):
                if (client, svc) not in conns and (client, svc) not in pending:
                    pending.append((client, svc))
        if not pending:
            yield selected, dict(conns)
            return
        client, svc = pending[0]
        rest = pending[1:]
        iface = software.interfaces[svc]
        for provider in sorted(software.providers(svc)):
            if provider == client:
                continue
            if iface.max_clients is not None:
                users = sum(1 for (c, s), p in conns.items() if s == svc and p == provider)
                if users >= iface.max_clients:
                    continue
            conns[(client, svc)] = provider
            yield from expand(selected | {provider}, conns, rest)
            del conns[(client, svc)]

    yield from expand(frozenset(pinned), {}, [])


def count_assignments(software, pinned) -> int:
    return sum(1 for _ in assignments(software, pinned))


def _task_types(software, selected):
    types = {}
    for comp in selected:
        for thread in software.contracts[comp].threads:
            for task in thread.tasks():
                types[(comp, task.name)] = task.resource_type
    return types


def feasible(system: SystemModel, model: str = "busy-window") -> bool:
    software, platform = system.software, system.platform
    pinned = pinned_components(software)
    for selected, conns in assignments(software, pinned):
        connections = frozenset((c, s, p) for (c, s), p in conns.items())
        base = Configuration(selected, connections, {}, ())
        graphs = {}
        try:
            for mode in (NORMAL, INITIALIZATION):
                graphs[mode] = build_task_graph(software, base, mode)
        except GraphError:
            continue
        if check_control_flow(software, base):
            continue
        types = _task_types(software, selected)
        tasks = sorted(types)
        options = [[r.name for r in platform.by_type(types[t])] for t in tasks]
        if any(not opts for opts in options):
            continue
        threads = sorted((c, th.name) for c in selected for th in software.contracts[c].threads)
        for combo in itertools.product(*options):
            mapping = dict(zip(tasks, combo))
            for perm in itertools.permutations(threads):
                cfg = Configuration(selected, connections, mapping, perm)
                if all(check_timing(graphs[m], cfg, platform, model).ok for m in graphs):
                    return True
    return False


def reference_synthesize(threads, graphs, constraints):
    """The first permutation of the reverse seed order, read bottom-up, on
    which no priority constraint is violated, or None.  A precedence is
    checked with `violated_by`, a nogood with `pairs_hold`; contexts are not
    looked at."""
    reverse = sorted(set(threads), key=_seed_key(graphs), reverse=True)
    for bottom_up in itertools.permutations(reverse):
        order = bottom_up[::-1]
        ranks = {t: i for i, t in enumerate(order)}
        if not any(
            c.violated_by(ranks) if isinstance(c, PriorityPrecedence) else c.pairs_hold(ranks)
            for c in constraints
        ):
            return order
    return None


def _releases(chain, offset, draws, horizon):
    if chain.event is None:
        return [offset + (draws[0] if draws else 0)]
    releases = []
    k = 0
    while offset + k * chain.event.period < horizon:
        releases.append(offset + k * chain.event.period + (draws[k] if k < len(draws) else 0))
        k += 1
    return releases


def _spans(chain):
    return sorted({(0, len(chain.nodes))} | {req.span for req in chain.requirements})


def reference_simulate(graph, cfg, scenario):
    """Unit-step reference for `sim.simulate`: `(latencies, partial)`.

    At each time unit every resource runs, for one unit, the released,
    unfinished job with the smallest (rank of its current node's thread,
    release, chain index, activation) key.
    """
    ranks = {thread: rank for rank, thread in enumerate(cfg.priorities)}
    jobs = []  # [chain, activation, release, node index, remaining, completions]
    for ci, chain in enumerate(graph.chains):
        if chain.nodes:
            releases = _releases(chain, scenario.offsets[ci], scenario.draws[ci], scenario.horizon)
            for k, release in enumerate(releases):
                jobs.append([ci, k, release, 0, chain.nodes[0].wcet, []])
    t = 0
    while any(job[3] < len(graph.chains[job[0]].nodes) for job in jobs):
        picks = {}
        for job in jobs:
            ci, k, release, idx = job[:4]
            nodes = graph.chains[ci].nodes
            if release > t or idx == len(nodes):
                continue
            resource = cfg.mapping[nodes[idx].task_id]
            key = (ranks[nodes[idx].thread], release, ci, k)
            if resource not in picks or key < picks[resource][0]:
                picks[resource] = (key, job)
        for _, job in picks.values():
            job[4] -= 1
            if job[4] == 0:
                job[5].append(t + 1)
                job[3] += 1
                nodes = graph.chains[job[0]].nodes
                if job[3] < len(nodes):
                    job[4] = nodes[job[3]].wcet
        t += 1
    latencies = {}
    for chain in graph.chains:
        if chain.nodes:
            for span in _spans(chain):
                latencies[(chain.root, span)] = []
    partial = False
    for ci, k, release, idx, remaining, completions in jobs:
        chain = graph.chains[ci]
        partial = partial or completions[-1] > scenario.horizon
        for start, stop in _spans(chain):
            ready = release if start == 0 else completions[start - 1]
            latencies[(chain.root, (start, stop))].append(completions[stop - 1] - ready)
    return latencies, partial


def reference_worst_observed(graph, cfg, horizon):
    """Grid walk for `sim.worst_observed` built on `reference_simulate`:
    the first chain at offset zero, every other periodic chain at each
    offset in [0, period), one-shot chains at zero; jitter maximal on the
    first activation, then zero throughout."""
    axes = [
        range(1) if ci == 0 or chain.event is None else range(chain.event.period)
        for ci, chain in enumerate(graph.chains)
    ]
    max_first = tuple((c.event.jitter,) if c.event is not None else () for c in graph.chains)
    zero = tuple(() for _ in graph.chains)
    maxima = {}
    for offsets in itertools.product(*axes):
        for draws in (max_first, zero):
            latencies, _ = reference_simulate(graph, cfg, ReleaseScenario(offsets, draws, horizon))
            for key, values in latencies.items():
                if values:
                    maxima[key] = max(maxima.get(key, values[0]), *values)
    return maxima
