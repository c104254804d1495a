"""Timing analysis: utilization and response-time bounds with feedback.

Two interference models share one entry point.  `busy-window` iterates the
classic response-time recurrence (activation counts via the chains' event
models, extended over multi-activation busy periods when a window outgrows
its own period); `single-blocking` charges every interfering task once.
A failed requirement produces priority nogoods that tell the store which
demotions could help, or a structural forbid when no demotion can.

`check_timing` bounds every span of a graph from a `TimingContext`, built
once per partial (the graph of one mode, the partial's mapping and the
platform) and shared by every priority order tried there: it holds the
utilization and the overload verdict, the iteration cap, each reported
span's WCET, resources and threads, and per resource and event model the
summed WCET of each thread's tasks there.  Every reader takes a chain's
tasks from its columns (`taskgraph.Chain`): utilization and the cap sum
the WCET column and its prefix sum, a span's WCET is two prefix-sum
lookups, and a chain with one thread on one resource adds one entry to
its group and shares one thread tuple and one resource tuple among its
spans.  An order only applies its ranks: it sorts each group by rank into
cumulative WCET, and the tasks that can preempt a span on a resource are
those ranked above its lowest-priority thread, a prefix found by
bisection, so a span's demand per event model is one prefix sum per
resource, less its own chain's tasks.  The recurrence
then evaluates `eta` once per event model, not once per interferer, and
wide systems are analysed in near-linear time.  A failing span builds its
feedback literals, the tuples of `constraints.py`, straight from its
chains' connections and its tasks' mapping.  The public
`chain_latency_bound` answers one span with one pass over the other chains
and builds no context; both share the busy-window loop, so they agree.

Priority synthesis resumes: a `PrioritySearch` keeps its placement stack
and nogood counts between steps over one thread set, so a step given new
nogoods goes on from the order the last step returned.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Mapping, NamedTuple, Sequence

from nego.constraints import (
    ConnLit,
    Constraint,
    ForbidConjunction,
    Literal,
    MapLit,
    PriorityNogood,
    sort_constraints,
)
from nego.model import Configuration, PlatformModel, QualId, qual_str
from nego.taskgraph import Chain, EventModel, TaskGraph

BUSY_WINDOW = "busy-window"
SINGLE_BLOCKING = "single-blocking"
MODELS = (BUSY_WINDOW, SINGLE_BLOCKING)


def utilization(graph: TaskGraph, cfg: Configuration, platform: PlatformModel) -> dict[str, Fraction]:
    """Total demand fraction per resource; one-shot chains contribute none.
    Integer WCET is summed per (period, resource) first, from the chains'
    task id and WCET columns, so each pair costs one division."""
    mapping = cfg.mapping
    demand: dict[int, dict[str, int]] = {}  # period -> resource -> summed WCET
    for chain in graph.chains:
        if chain.event is None:
            continue
        per_resource = demand.setdefault(chain.event.period, {})
        for task, wcet in zip(chain.task_ids, chain.wcets):
            resource = mapping[task]
            per_resource[resource] = per_resource.get(resource, 0) + wcet
    out: dict[str, Fraction] = {res.name: Fraction(0) for res in platform.resources}
    for period, per_resource in demand.items():
        for resource, wcet in per_resource.items():
            out[resource] += Fraction(wcet, period)
    return out


# ---------------------------------------------------------------------------
# Latency bounds


def _iteration_cap(graph: TaskGraph) -> int:
    """Ten times the graph's total WCET over its shortest period, at least
    64; 64 for a graph without periodic chains.  One pass over the chains,
    each chain's WCET the last entry of its prefix sum."""
    total = 0
    shortest = None
    for chain in graph.chains:
        total += chain.prefix[-1]
        event = chain.event
        if event is not None and (shortest is None or event.period < shortest):
            shortest = event.period
    if shortest is None:
        return 64
    return max(64, 10 * total // shortest)


def _interferers(
    chain: Chain,
    span: tuple[int, int],
    graph: TaskGraph,
    mapping: Mapping[QualId, str],
    ranks: Mapping[QualId, int],
) -> list[tuple[Chain, list[int]]]:
    """Per other chain, the positions of its tasks that can preempt the
    chain's span: mapped onto one of the span's resources and owned by a
    thread that outranks the span's lowest-priority thread.  Positions, not
    (task, thread, WCET) rows: on a graph of one-task chains, building a
    row per interfering task costs about a quarter more."""
    start, stop = span
    resources = {mapping[task] for task in chain.task_ids[start:stop]}
    floor = max(ranks[thread] for thread in chain.threads[start:stop])
    out: list[tuple[Chain, list[int]]] = []
    for other in graph.chains:
        if other.root == chain.root:
            continue
        task_ids = other.task_ids
        positions = [
            i for i, thread in enumerate(other.threads) if mapping[task_ids[i]] in resources and ranks[thread] < floor
        ]
        if positions:
            out.append((other, positions))
    return out


def _fixed_window(base: int, interference: Iterable[tuple[EventModel | None, int]], cap: int) -> int | None:
    window = base
    for _ in range(cap):
        nxt = base
        for event, demand in interference:
            nxt += demand if event is None else event.eta(window) * demand
        if nxt == window:
            return window
        window = nxt
    return None


def _busy_window(
    event: EventModel | None, own: int, interference: Iterable[tuple[EventModel | None, int]], cap: int
) -> int | None:
    """Busy-window bound of a span with WCET `own` whose chain has `event`,
    under (event model, demand) interference, a None model interfering
    once: the worst response over the activations q = 1, 2, ... of a busy
    period that outgrows the chain's period."""
    best = 0
    q = 1
    while True:
        window = _fixed_window(q * own, interference, cap)
        if window is None:
            return None
        if event is None:
            return window
        period, jitter = event.period, event.jitter
        release = 0 if q == 1 else (q - 1) * period - jitter
        best = max(best, window - release)
        if window <= q * period - jitter:
            return best
        q += 1
        if q > cap:
            return None


def chain_latency_bound(
    chain: Chain,
    span: tuple[int, int],
    graph: TaskGraph,
    cfg: Configuration,
    ranks: Mapping[QualId, int],
    model: str,
) -> int | None:
    """Upper bound on the span's latency, or None when the analysis cannot
    bound it (the busy window never closes within the iteration cap).

    One pass over the other chains, one demand pair per interfering chain:
    callers bound one or two spans of a small graph, where grouping pairs
    per event model costs more than it saves.  `check_timing`, which bounds
    every span of a graph, reads grouped demand from a `TimingContext`."""
    if model not in MODELS:
        raise ValueError(f"unknown interference model {model!r}")
    start, stop = span
    if start == stop:
        return 0
    own = chain.prefix[stop] - chain.prefix[start]
    interferers = _interferers(chain, span, graph, cfg.mapping, ranks)
    if model == SINGLE_BLOCKING:
        return own + sum(other.wcets[i] for other, positions in interferers for i in positions)
    interference = [(other.event, sum(other.wcets[i] for i in positions)) for other, positions in interferers]
    return _busy_window(chain.event, own, interference, _iteration_cap(graph))


class _Span(NamedTuple):
    """One reported span and what of it no priority order changes."""

    chain: Chain
    bound: int | None  # required bound; None when the chain states none
    target: str
    span: tuple[int, int]  # task position range [start, stop) in the chain
    own: int  # summed WCET of the tasks
    resources: tuple[str, ...]  # where the tasks are mapped
    threads: tuple[QualId, ...]  # that own the tasks
    # (thread, WCET) of the chain's tasks on `resources`; empty when the
    # chain has one thread, whose tasks never outrank the span
    same_chain: tuple[tuple[QualId, int], ...]


class TimingContext:
    """What every priority order of one partial shares, from the task graph
    of one mode, the partial's mapping and the platform: the utilization
    and overloaded resources, the iteration cap, one `_Span` per reported
    span, and per resource and event model the summed WCET of each
    thread's tasks there.  Built from the chains' columns: a span's WCET is
    two prefix-sum lookups, and a chain with one thread on one resource
    adds one entry and gives every span of it the same thread and resource
    tuples."""

    def __init__(self, graph: TaskGraph, cfg: Configuration, platform: PlatformModel) -> None:
        self.graph = graph
        self.mapping = cfg.mapping
        self.utilization = utilization(graph, cfg, platform)
        self.overloaded = sorted(r for r, frac in self.utilization.items() if frac > 1)
        self.cap = _iteration_cap(graph)
        self.spans: list[_Span] = []
        # per resource and event model, the summed WCET of each thread there
        self.groups: dict[str, dict[EventModel | None, dict[QualId, int]]] = {}
        if self.overloaded:
            return  # no latency is bounded
        mapping = cfg.mapping
        alone: dict[str, tuple[str]] = {}  # resource -> the one tuple of it the spans share
        for chain in graph.chains:
            task_ids, threads, wcets, prefix = chain.task_ids, chain.threads, chain.wcets, chain.prefix
            if not task_ids:
                continue
            placed = list(map(mapping.__getitem__, task_ids))
            chain_threads = tuple(set(threads))
            one_thread = len(chain_threads) == 1
            first = placed[0]
            if one_thread and placed.count(first) == len(placed):
                demand = self.groups.setdefault(first, {}).setdefault(chain.event, {})
                demand[threads[0]] = demand.get(threads[0], 0) + prefix[-1]
                chain_resources: tuple[str, ...] | None = alone.setdefault(first, (first,))
            else:
                own_groups: dict[str, dict[QualId, int]] = {}  # this chain's, by resource
                for thread, wcet, resource in zip(threads, wcets, placed):
                    demand = own_groups.get(resource)
                    if demand is None:
                        per_event = self.groups.setdefault(resource, {})
                        demand = own_groups[resource] = per_event.setdefault(chain.event, {})
                    demand[thread] = demand.get(thread, 0) + wcet
                chain_resources = tuple(own_groups) if len(own_groups) == 1 else None
            if chain.requirements:
                rows = [(req.bound, req.span, req.target) for req in chain.requirements]
            else:
                rows = [(None, (0, len(task_ids)), qual_str(chain.root))]
            for bound, span, target in rows:
                start, stop = span
                resources = chain_resources or tuple(set(placed[start:stop]))
                if one_thread:
                    span_threads, same = chain_threads, ()
                else:
                    span_threads = tuple(set(threads[start:stop]))
                    same = tuple(
                        (thread, wcet)
                        for thread, wcet, resource in zip(threads, wcets, placed)
                        if resource in resources
                    )
                own = prefix[stop] - prefix[start]
                self.spans.append(_Span(chain, bound, target, span, own, resources, span_threads, same))


def _span_bound(
    span: _Span,
    prefixes: Mapping[str, list[tuple[EventModel | None, list[int], list[int]]]],
    ranks: Mapping[QualId, int],
    model: str,
    cap: int,
) -> int | None:
    """`chain_latency_bound` of the span under the ranks, from the ranked
    prefixes of its resources: per event model, the summed WCET of the
    other chains' tasks that can preempt it."""
    if span.span[0] == span.span[1]:
        return 0
    floor = max(map(ranks.__getitem__, span.threads))
    demand: dict[EventModel | None, int] = {}
    for resource in span.resources:
        for event, ranked, cumulative in prefixes[resource]:
            wcet = cumulative[bisect_left(ranked, floor)]
            if wcet:
                demand[event] = demand.get(event, 0) + wcet
    own_chain = sum(wcet for thread, wcet in span.same_chain if ranks[thread] < floor)
    if own_chain:
        event = span.chain.event
        demand[event] -= own_chain
        if not demand[event]:
            del demand[event]
    if model == SINGLE_BLOCKING:
        return span.own + sum(demand.values())
    return _busy_window(span.chain.event, span.own, demand.items(), cap)


# ---------------------------------------------------------------------------
# Verdicts and feedback


class TimingVerdict(NamedTuple):
    target: str
    bound: int | None  # required bound; None when the chain states none
    computed: int | None  # None: unbounded
    passed: bool
    model: str

    def line(self) -> str:
        bound = "inf" if self.bound is None else str(self.bound)
        computed = "unbounded" if self.computed is None else str(self.computed)
        verdict = "PASS" if self.passed else "FAIL"
        return f"timing {bound} {self.target}: bound={computed} {verdict} model={self.model}"


class TimingReport(NamedTuple):
    model: str
    utilization: Mapping[str, Fraction]
    verdicts: tuple[TimingVerdict, ...]
    constraints: tuple[Constraint, ...]

    @property
    def ok(self) -> bool:
        return not self.constraints

    def lines(self) -> list[str]:
        out = []
        for resource in sorted(self.utilization):
            frac = self.utilization[resource]
            state = "OVERLOAD" if frac > 1 else "OK"
            out.append(f"utilization {resource}: {frac} {state}")
        out.extend(v.line() for v in self.verdicts)
        return out


def _overload_forbid(context: TimingContext, resource: str) -> ForbidConjunction:
    """Pin the overload on the structure that caused it: the connections of
    every chain with a task on the resource plus the placement of its tasks
    there.  Only a normal-mode graph overloads, and its chains are all
    periodic."""
    literals: set[Literal] = set()
    mapping = context.mapping
    for chain in context.graph.chains:
        on_resource = [task for task in chain.task_ids if mapping[task] == resource]
        if not on_resource:
            continue
        literals.update(ConnLit(*edge) for edge in chain.connections_used)
        literals.update(MapLit(*task, resource) for task in on_resource)
    return ForbidConjunction(frozenset(literals))


def _latency_feedback(
    context: TimingContext,
    span: _Span,
    interferers: Sequence[tuple[Chain, list[int]]],
    ranks: Mapping[QualId, int],
) -> list[Constraint]:
    mapping = context.mapping
    start, stop = span.span
    literals: set[Literal] = {ConnLit(*edge) for edge in span.chain.connections_used}
    literals.update(MapLit(*task, mapping[task]) for task in span.chain.task_ids[start:stop])
    if span.own > span.bound or not interferers:
        # No demotion can help: the range alone exceeds the bound, or
        # nothing preempts it.
        return [ForbidConjunction(frozenset(literals))]
    for other, positions in interferers:
        literals.update(ConnLit(*edge) for edge in other.connections_used)
        for task in map(other.task_ids.__getitem__, positions):
            literals.add(MapLit(*task, mapping[task]))
    nogood_context = frozenset(literals)
    floor_thread = max(span.threads, key=lambda t: ranks[t])
    interfering_threads = sorted({other.threads[i] for other, positions in interferers for i in positions})
    out: list[Constraint] = [
        PriorityNogood(nogood_context, frozenset((t, floor_thread) for t in interfering_threads))
    ]
    # A single interferer too big for the slack can never sit above any range
    # thread; emit one demotion nogood per (big task, range thread) pair.
    slack = span.bound - span.own
    big = sorted({other.threads[i] for other, positions in interferers for i in positions if other.wcets[i] > slack})
    for thread in big:
        for below in sorted(span.threads):
            out.append(PriorityNogood(nogood_context, frozenset({(thread, below)})))
    return out


def check_timing(context: TimingContext, cfg: Configuration, model: str) -> TimingReport:
    """Utilization first; latency bounds only on non-overloaded systems.

    `cfg` is a configuration of the context's partial: its priority order
    is what the call adds."""
    if model not in MODELS:
        raise ValueError(f"unknown interference model {model!r}")
    if context.overloaded:
        constraints = [_overload_forbid(context, r) for r in context.overloaded]
        return TimingReport(model, context.utilization, (), tuple(sort_constraints(constraints)))

    ranks = cfg.ranks()
    prefixes = {}
    for resource, per_event in context.groups.items():
        prefixes[resource] = rows = []
        for event, demand in per_event.items():
            ranked = sorted(zip(map(ranks.__getitem__, demand), demand.values()))
            cumulative = list(accumulate((wcet for _, wcet in ranked), initial=0))
            rows.append((event, [rank for rank, _ in ranked], cumulative))
    verdicts: list[TimingVerdict] = []
    constraints: dict[Constraint, None] = {}
    for span in context.spans:
        computed = _span_bound(span, prefixes, ranks, model, context.cap)
        if span.bound is None:
            passed = True
        else:
            passed = computed is not None and computed <= span.bound
        verdicts.append(TimingVerdict(span.target, span.bound, computed, passed, model))
        if not passed:
            interferers = _interferers(span.chain, span.span, context.graph, context.mapping, ranks)
            for c in _latency_feedback(context, span, interferers, ranks):
                constraints[c] = None
    return TimingReport(model, context.utilization, tuple(verdicts), tuple(sort_constraints(constraints)))


# ---------------------------------------------------------------------------
# Priority synthesis


def _seed_key(graphs: Sequence[TaskGraph]):
    """Deadline-monotonic seed: a thread is keyed by the tightest latency
    bound over any requirement span its tasks appear in."""
    tightest: dict[QualId, int] = {}
    for graph in graphs:
        for chain in graph.chains:
            for req in chain.requirements:
                start, stop = req.span
                for thread in chain.threads[start:stop]:
                    prior = tightest.get(thread)
                    if prior is None or req.bound < prior:
                        tightest[thread] = req.bound

    def key(thread: QualId):
        bound = tightest.get(thread)
        if bound is None:
            return (1, 0, thread)
        return (0, bound, thread)

    return key


class PrioritySearch:
    """The state `synthesize_priorities` keeps between its steps over one
    thread set: the threads in reverse seed order, the nogoods counted so
    far with their watches and counts of pairs decided true, and the
    placement stack, lowest rank first."""

    def __init__(self, threads: Sequence[QualId], graphs: Sequence[TaskGraph]) -> None:
        self.reverse = sorted(frozenset(threads), key=_seed_key(graphs), reverse=True)
        self.index = {t: i for i, t in enumerate(self.reverse)}
        self.kept: set[frozenset[tuple[QualId, QualId]]] = set()
        self.size: list[int] = []
        self.holding: list[int] = []  # pairs decided true, per nogood
        self.watch: list[list[tuple[int, int]]] = [[] for _ in self.reverse]  # per lo: (nogood, hi)
        self.placed = [False] * len(self.reverse)
        self.stack: list[int] = []  # indices into reverse, the lowest rank first
        self.start = 0  # where a step that cuts nothing goes on: len(reverse) once exhausted

    def count(self, i: int, step: int) -> None:
        placed, holding = self.placed, self.holding
        for k, hi in self.watch[i]:
            if not placed[hi]:
                holding[k] += step

    def pop(self) -> int:
        """Undo the top placement; the index of the next candidate there."""
        i = self.stack.pop()
        self.placed[i] = False
        self.count(i, -1)
        return i + 1

    def learn(self, nogoods: Iterable[PriorityNogood]) -> int | None:
        """Watch the nogoods not seen before and count their pairs decided
        true by the placement; the shallowest depth at which one of them is
        complete, or None."""
        index = self.index
        depth = {i: d for d, i in enumerate(self.stack)}
        cut: int | None = None
        for ng in nogoods:
            pairs = frozenset(ng.pairs)
            if not pairs or pairs in self.kept:
                continue
            if not all(hi != lo and hi in index and lo in index for hi, lo in pairs):
                continue  # a pair that can never hold
            self.kept.add(pairs)
            k = len(self.size)
            self.size.append(len(pairs))
            decided = []  # depths of the pairs decided true
            for hi, lo in pairs:
                hi_i, lo_i = index[hi], index[lo]
                self.watch[lo_i].append((k, hi_i))
                if lo_i in depth and depth[lo_i] < depth.get(hi_i, len(self.stack)):
                    decided.append(depth[lo_i])
            self.holding.append(len(decided))
            if len(decided) == len(pairs):
                cut = max(decided) if cut is None else min(cut, max(decided))
        return cut


def synthesize_priorities(
    search: PrioritySearch, nogoods: Iterable[PriorityNogood]
) -> tuple[QualId, ...] | None:
    """The first total priority order on which no nogood holds in full, or
    None: over the nogoods this search has been given so far, `nogoods`
    being the ones added at this step.

    Bottom-up placement with full backtracking (Audsley 1991): the lowest
    rank is filled first, candidates tried in reverse seed order, so an
    unconstrained run reproduces the deadline-monotonic seed exactly and
    the first order found is the first such permutation in that order.

    A pair (hi, lo) reads "hi outranks lo" and is decided when the first of
    its threads is placed: false if that is hi, true if it is lo.  Each
    nogood counts its pairs decided true, and a placement that makes the
    count reach its size is refused; a pair decided false keeps it below
    for good.  Backtracking undoes what placement counted.  A nogood with a
    pair that can never hold is dropped up front.

    A step resumes from the order the last step returned: every earlier
    permutation broke an earlier nogood.  If a new nogood holds in full on
    that order, the stack is cut back to the shallowest depth at which one
    is complete, as every order with that placement below breaks it, and
    the search goes on from the next candidate there.  Otherwise the same
    order is returned again.  After None, every step returns None.
    """
    cut = search.learn(nogoods)
    stack, placed, holding, size = search.stack, search.placed, search.holding, search.size
    watch = search.watch
    count, n, start = search.count, len(search.reverse), search.start
    if cut is not None:
        while len(stack) > cut:
            start = search.pop()
    while len(stack) < n:
        for i in range(start, n):
            if placed[i]:
                continue
            count(i, 1)
            if not any(holding[k] == size[k] for k, hi in watch[i] if not placed[hi]):
                placed[i] = True
                stack.append(i)
                start = 0
                break
            count(i, -1)
        else:
            if not stack:
                search.start = n
                return None
            start = search.pop()
    return tuple(search.reverse[i] for i in reversed(stack))
