"""Brute-force references the real implementation is checked against.

`assignments` and `partials` list the structural space plainly, in the
order the constraint store documents, which the store's proposals must
follow.  `feasible` answers the same question as negotiation by
exhaustive search: every reachable connection assignment, every
type-compatible mapping, every priority permutation.  No learned
constraints, no pruning.
`invalid_constraints` walks the same configurations and reports every one
that a learned constraint excludes although it passes every analysis.
`reference_simulate` and `reference_worst_observed` step the schedule one
time unit at a time, as plainly as possible, for the event-driven simulator;
they release a SIGNAL-forked chain at its fork point, where the simulator
still releases it on an offset of its own.
`reference_synthesize` walks every priority permutation for the
backtracking priority synthesis.  `chain_utilization` is one chain's
demand, which `timing.utilization` must sum to over a graph.
`reference_check_control_flow` indexes every routed call site of every
selected thread, whether or not a rule names its method, for the
rules-first `check_control_flow`.
`reference_chains` unfolds each chain recursively, records its tasks as
(task id, thread, wcet, bcet) rows and the span of every inlined call and
callee thread, and only then looks up the requirements on them, for
`build_task_graph`, which fills a chain's columns in one loop and keeps
only the spans a requirement targets.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from nego.constraints import ConnLit, ForbidConjunction, SelLit, configuration_ok
from nego.controlflow import (
    CallSite,
    CfViolation,
    _method,
    _unselected_initializers,
    check_control_flow,
    thread_modes,
)
from nego.dsl import Initialization, TaskStep, TimeActivation
from nego.model import Configuration, SystemModel, pinned_components
from nego.sim import JITTER_PATTERNS, ReleaseScenario, simulate, synchronous_scenario
from nego.taskgraph import GraphError, INITIALIZATION, NORMAL, LatencyReq, build_task_graph
from nego.timing import TimingContext, _seed_key, check_timing


def assignments(software, pinned):
    """Every complete connection assignment over reachable selections, in
    the store's order: the smallest pending (client, service) pair first,
    its providers in name order, skipping the client itself and any
    provider already serving `max_clients` clients, the selection growing
    with each chosen provider."""

    def expand(selected, conns):
        pending = [(c, s) for c in selected for s in software.contracts[c].requires if (c, s) not in conns]
        if not pending:
            yield selected, dict(conns)
            return
        client, svc = min(pending)
        bound = software.interfaces[svc].max_clients
        for provider in sorted(software.providers(svc)):
            if provider == client:
                continue
            users = sum(1 for (_, s), p in conns.items() if s == svc and p == provider)
            if bound is not None and users >= bound:
                continue
            conns[(client, svc)] = provider
            yield from expand(selected | {provider}, conns)
            del conns[(client, svc)]

    yield from expand(frozenset(pinned), {})


def count_assignments(software, pinned) -> int:
    return sum(1 for _ in assignments(software, pinned))


def _task_types(software, selected):
    types = {}
    for comp in selected:
        for thread in software.contracts[comp].threads:
            for task in thread.tasks():
                types[(comp, task.name)] = task.resource_type
    return types


def partials(software, platform):
    """Every structural partial (selection, connections, mapping, and no
    priorities) in the store's order: each assignment in the order above,
    with every type-compatible mapping, tasks in name order and resources
    in platform order."""
    for selected, conns in assignments(software, pinned_components(software)):
        connections = frozenset((c, s, p) for (c, s), p in conns.items())
        types = _task_types(software, selected)
        tasks = sorted(types)
        pools = [[r.name for r in platform.resources if r.rtype == types[t]] for t in tasks]
        for combo in itertools.product(*pools):
            yield Configuration(selected, connections, dict(zip(tasks, combo)), ())


def _structures(system: SystemModel):
    """Every reachable connection assignment whose structure passes, as
    (base configuration, task graphs of both modes): the task graphs build
    and control flow finds no violation.  Every configuration of any other
    assignment fails an analysis whatever its mapping and priorities."""
    software = system.software
    for selected, conns in assignments(software, pinned_components(software)):
        connections = frozenset((c, s, p) for (c, s), p in conns.items())
        base = Configuration(selected, connections, {}, ())
        try:
            graphs = tuple(build_task_graph(software, base, mode) for mode in (NORMAL, INITIALIZATION))
        except GraphError:
            continue
        if not check_control_flow(software, base):
            yield base, graphs


def _completions(system: SystemModel, base: Configuration):
    """Every complete configuration of a structure: each type-compatible
    mapping, each priority permutation."""
    types = _task_types(system.software, base.selected)
    tasks = sorted(types)
    options = [[r.name for r in system.platform.resources if r.rtype == types[t]] for t in tasks]
    threads = sorted((c, th.name) for c in base.selected for th in system.software.contracts[c].threads)
    for combo in itertools.product(*options):
        mapping = dict(zip(tasks, combo))
        for perm in itertools.permutations(threads):
            yield Configuration(base.selected, base.connections, mapping, perm)


def _timing_ok(system: SystemModel, graphs, cfg: Configuration, model: str) -> bool:
    return all(check_timing(TimingContext(graph, cfg, system.platform), cfg, model).ok for graph in graphs)


def feasible(system: SystemModel, model: str = "busy-window") -> bool:
    return any(
        _timing_ok(system, graphs, cfg, model)
        for base, graphs in _structures(system)
        for cfg in _completions(system, base)
    )


def invalid_constraints(system: SystemModel, model: str, constraints):
    """Every (constraint, configuration) pair where the constraint excludes
    a complete configuration that passes every analysis under `model`:
    control flow, task-graph structure and timing in both modes.  A
    learned constraint is valid when it has no such pair."""
    found = []
    for base, graphs in _structures(system):
        for cfg in _completions(system, base):
            excluding = [c for c in constraints if not configuration_ok(cfg, (c,))]
            if excluding and _timing_ok(system, graphs, cfg, model):
                found.extend((c, cfg) for c in excluding)
    return found


def reference_synthesize(threads, graphs, constraints):
    """The first permutation of the reverse seed order, read bottom-up, on
    which no priority nogood holds in full (`pairs_hold`), or None;
    contexts are not looked at."""
    reverse = sorted(set(threads), key=_seed_key(graphs), reverse=True)
    for bottom_up in itertools.permutations(reverse):
        order = bottom_up[::-1]
        ranks = {t: i for i, t in enumerate(order)}
        if not any(c.pairs_hold(ranks) for c in constraints):
            return order
    return None


def chain_utilization(chain, cfg) -> dict[str, Fraction]:
    """Per-resource demand fraction of one periodic chain."""
    if chain.event is None:
        return {}
    demand: dict[str, int] = {}
    for task, wcet in zip(chain.task_ids, chain.wcets):
        resource = cfg.mapping[task]
        demand[resource] = demand.get(resource, 0) + wcet
    return {r: Fraction(w, chain.event.period) for r, w in demand.items()}


def reference_chains(software, cfg, mode):
    """Each chain's tasks, as (task id, thread, wcet, bcet) rows in
    execution order, and its requirements, in the order of
    `Chain.requirements`, by chain root, for a configuration whose graph
    builds."""
    wanted = {}  # ("thread", (component, thread)) or ("call", (caller, service, method)) -> rows
    for comp in cfg.selected:
        for timing in software.contracts[comp].timings:
            if isinstance(timing.target, str):
                key = ("thread", (comp, timing.target))
            else:
                key = ("call", (comp, timing.target.service, timing.target.method))
            wanted.setdefault(key, []).append((timing.bound, comp, timing.target_str()))

    def unfold(comp, thread, tasks, spans, forks):
        """Append the thread's tasks to its chain's `tasks`, each RPC
        callee's in place."""
        for step in thread.steps:
            if isinstance(step, TaskStep):
                tasks.append(((comp, step.name), (comp, thread.name), step.wcet, step.bcet))
                continue
            call = (comp, step.ref.service, step.ref.method)
            provider = cfg.provider_of(comp, step.ref.service)
            entry = software.contracts[provider].entry_thread(step.ref.service, step.ref.method)
            if step.kind == "SIGNAL":
                forks.append((provider, entry, call))
                continue
            start = len(tasks)
            unfold(provider, entry, tasks, spans, forks)
            span = (start, len(tasks))
            spans += [(("thread", (provider, entry.name)), span), (("call", call), span)]

    activation = TimeActivation if mode == NORMAL else Initialization
    pending = [
        (comp, thread, None)
        for comp in sorted(cfg.selected)
        for thread in software.contracts[comp].threads
        if isinstance(thread.activation, activation)
    ]
    out = {}
    while pending:
        comp, thread, trigger = pending.pop(0)
        tasks, spans, forks = [], [], []
        unfold(comp, thread, tasks, spans, forks)
        whole = (0, len(tasks))
        spans.append((("thread", (comp, thread.name)), whole))
        if trigger is not None:
            spans.append((("call", trigger), whole))
        reqs = [LatencyReq(bound, span, owner, target) for key, span in spans for bound, owner, target in wanted.get(key, ())]
        out[(comp, thread.name)] = tasks, tuple(sorted(reqs, key=lambda r: (r.span, r.bound, r.owner, r.target)))
        pending += forks
    return out


def reference_check_control_flow(software, cfg):
    """`check_control_flow` over an index of every routed call site of
    every selected thread that executes in some mode."""
    modes = thread_modes(software, cfg)
    sites = {}  # by called method
    for comp in sorted(cfg.selected):
        for thread in software.contracts[comp].threads:
            executing = modes[(comp, thread.name)]
            if not executing:
                continue
            for index, call in thread.calls():
                provider = cfg.provider_of(comp, call.ref.service)
                if provider is None:
                    continue
                site = CallSite(comp, thread, index, provider, executing)
                sites.setdefault(_method(call.ref), []).append(site)
    violations = []
    seen = set()
    for provider in sorted(cfg.selected):
        for req in software.contracts[provider].control_flow:
            forbidden, prerequisite = req.forbidden, req.prerequisite
            prerequisite_key = _method(prerequisite)
            initializers = [s for s in sites.get(prerequisite_key, ()) if INITIALIZATION in s.modes]
            normal_covered = any(s.provider == provider for s in initializers)
            routed_elsewhere = {ConnLit(s.client, prerequisite.service, s.provider) for s in initializers}
            for site in sites.get(_method(forbidden), ()):
                if site.provider != provider:
                    continue
                earlier = any(
                    _method(call.ref) == prerequisite_key for i, call in site.thread.calls() if i < site.index
                )
                earlier_route = cfg.provider_of(site.client, prerequisite.service) if earlier else None
                if earlier_route == provider:
                    continue
                for mode in sorted(site.modes):
                    if mode == NORMAL and normal_covered:
                        continue
                    key = (provider, str(forbidden), str(prerequisite), site.client, site.thread.name, mode)
                    if key in seen:
                        continue
                    seen.add(key)
                    literals = {ConnLit(site.client, forbidden.service, provider)}
                    if earlier_route is not None:
                        literals.add(ConnLit(site.client, prerequisite.service, earlier_route))
                    if mode == NORMAL:
                        literals |= routed_elsewhere
                        for dormant in _unselected_initializers(software, cfg, prerequisite):
                            literals.add(SelLit(dormant, False))
                    violations.append(
                        CfViolation(
                            provider=provider,
                            forbidden=forbidden,
                            prerequisite=prerequisite,
                            client=site.client,
                            thread=site.thread.name,
                            mode=mode,
                            feedback=ForbidConjunction(frozenset(literals)),
                        )
                    )
    violations.sort(key=lambda v: (v.provider, str(v.forbidden), v.client, v.thread, v.mode))
    return violations


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
    return sorted({(0, len(chain.task_ids))} | {req.span for req in chain.requirements})


def reference_simulate(graph, cfg, scenario):
    """Unit-step reference for `sim.simulate`: `(latencies, partial)`.

    At each time unit every resource runs, for one unit, the released,
    unfinished job with the smallest (rank of its current task's thread,
    release, chain index, activation) key.  A chain forked by a SIGNAL has
    no releases of its own: its activation k is released when activation k
    of its trigger completes the task before the fork position, or, at
    position 0, when that activation is released.  A task whose wcet is
    below 1 is refused, as `sim` refuses it: its job would never finish.
    So is, naming its chain, a scenario without one offset and one draw
    tuple per chain, a negative offset, or a draw outside [0, jitter]
    (below 0 for a one-shot chain): time here starts at 0.
    """
    for chain in graph.chains:
        for (component, task), wcet in zip(chain.task_ids, chain.wcets):
            if wcet < 1:
                raise ValueError(f"task {component}.{task} has wcet {wcet}, below 1")
    chains = graph.chains
    for kind, values in (("offset", scenario.offsets), ("draw tuple", scenario.draws)):
        if len(values) < len(chains):
            name = "{}.{}".format(*chains[len(values)].root)
            raise ValueError(f"the scenario has no {kind} for chain {name}")
        if len(values) > len(chains):
            raise ValueError(f"the scenario has {len(values)} {kind}s for {len(chains)} chains")
    for chain, offset, draws in zip(chains, scenario.offsets, scenario.draws):
        name = "{}.{}".format(*chain.root)
        if offset < 0:
            raise ValueError(f"chain {name} has offset {offset}, below 0")
        for draw in draws:
            if draw < 0:
                raise ValueError(f"chain {name} has jitter draw {draw}, below 0")
            if chain.event is not None and draw > chain.event.jitter:
                raise ValueError(f"chain {name} has jitter draw {draw}, above its jitter {chain.event.jitter}")
    ranks = {thread: rank for rank, thread in enumerate(cfg.priorities)}
    index = {chain.root: ci for ci, chain in enumerate(graph.chains)}
    forks = {}  # trigger chain index -> [(forked chain index, fork position)]
    for ci, chain in enumerate(graph.chains):
        if chain.triggered_by is not None:
            trigger, position = chain.triggered_by
            forks.setdefault(index[trigger], []).append((ci, position))
    jobs = []  # [chain, activation, release, task position, remaining, completions]

    def reach(ci, k, position, t):
        """Activation k of chain ci has completed `position` tasks at t."""
        for forked, at in forks.get(ci, ()):
            if at == position:
                activate(forked, k, t)

    def activate(ci, k, t):
        wcets = graph.chains[ci].wcets
        jobs.append([ci, k, t, 0, wcets[0] if wcets else 0, []])
        reach(ci, k, 0, t)

    for ci, chain in enumerate(graph.chains):
        if chain.triggered_by is None:
            for k, t in enumerate(_releases(chain, scenario.offsets[ci], scenario.draws[ci], scenario.horizon)):
                activate(ci, k, t)
    t = 0
    while any(job[3] < len(graph.chains[job[0]].task_ids) for job in jobs):
        picks = {}
        for job in jobs:
            ci, k, release, idx = job[:4]
            chain = graph.chains[ci]
            if release > t or idx == len(chain.task_ids):
                continue
            resource = cfg.mapping[chain.task_ids[idx]]
            key = (ranks[chain.threads[idx]], release, ci, k)
            if resource not in picks or key < picks[resource][0]:
                picks[resource] = (key, job)
        for _, job in picks.values():
            job[4] -= 1
            if job[4] == 0:
                job[5].append(t + 1)
                job[3] += 1
                wcets = graph.chains[job[0]].wcets
                if job[3] < len(wcets):
                    job[4] = wcets[job[3]]
                reach(job[0], job[1], job[3], t + 1)
        t += 1
    jobs = sorted((job for job in jobs if graph.chains[job[0]].task_ids), key=lambda job: job[:2])
    latencies = {}
    for chain in graph.chains:
        if chain.task_ids:
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
    the first chain that no SIGNAL forks at offset zero, every other
    periodic chain at each offset in [0, period), one-shot chains at zero;
    jitter maximal on the first activation, then zero throughout.  A forked
    chain is released by its trigger, so it has no offset axis."""
    anchor = next((ci for ci, chain in enumerate(graph.chains) if chain.triggered_by is None), 0)
    axes = [
        range(1) if ci == anchor or chain.event is None or chain.triggered_by is not None else range(chain.event.period)
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


def engine_worst_observed(graph, cfg, horizon):
    """Grid walk of `sim.worst_observed` built on `sim.simulate`: the first
    chain at offset zero, every other periodic chain at each offset in
    [0, period), one-shot chains at zero, both jitter patterns, every chain
    in every run.  It takes none of the sweep's shortcuts (groups, the
    lone-chain rule, stops, rejoins, the synchronous zero run).  Unlike
    `reference_worst_observed`, it releases a chain forked by a SIGNAL on
    its own offset axis, as the engine does, so it is the reference for
    the sweep on fork systems."""
    axes = [
        range(1) if ci == 0 or chain.event is None else range(chain.event.period)
        for ci, chain in enumerate(graph.chains)
    ]
    patterns = [synchronous_scenario(graph, horizon, pattern).draws for pattern in JITTER_PATTERNS]
    maxima = {}
    for offsets in itertools.product(*axes):
        for draws in patterns:
            latencies = simulate(graph, cfg, ReleaseScenario(offsets, draws, horizon)).latencies
            for key, values in latencies.items():
                if values:
                    maxima[key] = max(maxima.get(key, values[0]), *values)
    return maxima
