"""Timing analysis: utilization and response-time bounds with feedback.

Two interference models share one entry point.  `busy-window` iterates the
classic response-time recurrence (activation counts via the chains' event
models, extended over multi-activation busy periods when a window outgrows
its own period); `single-blocking` charges every interfering task once.
A failed requirement produces priority nogoods that tell the store which
demotions could help, or a structural forbid when no demotion can.

`check_timing` bounds every span of a graph from one interference index,
built once per (graph, configuration): per resource and event model, the
ranks of the resource's tasks in ascending order and their cumulative WCET.
The tasks that can preempt a span on a resource are those ranked above its
lowest-priority thread, a prefix found by bisection, so a span's demand per
event model is one prefix sum per resource, less its own chain's tasks.
The recurrence then evaluates `eta` once per event model, not once per
interferer, and wide systems are analysed in near-linear time.  The public
`chain_latency_bound` answers one span with one pass over the other chains
and builds no index; both share the busy-window loop, so they agree.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

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
from nego.taskgraph import NORMAL, Chain, EventModel, TaskGraph, TaskNode, total_wcet

BUSY_WINDOW = "busy-window"
SINGLE_BLOCKING = "single-blocking"
MODELS = (BUSY_WINDOW, SINGLE_BLOCKING)


def utilization(graph: TaskGraph, cfg: Configuration, platform: PlatformModel) -> dict[str, Fraction]:
    """Total demand fraction per resource; one-shot chains contribute none.
    Integer WCET is summed per (resource, period) first, so each period
    costs one division."""
    demand: dict[tuple[str, int], int] = {}
    for chain in graph.chains:
        if chain.event is None:
            if graph.mode == NORMAL:
                raise ValueError(f"chain {qual_str(chain.root)} has no resolved period in normal mode")
            continue
        period = chain.event.period
        for node in chain.nodes:
            key = (cfg.mapping[node.task_id], period)
            demand[key] = demand.get(key, 0) + node.wcet
    out: dict[str, Fraction] = {res.name: Fraction(0) for res in platform.resources}
    for (resource, period), wcet in demand.items():
        out[resource] += Fraction(wcet, period)
    return out


# ---------------------------------------------------------------------------
# Latency bounds


def _iteration_cap(graph: TaskGraph) -> int:
    total = sum(total_wcet(chain) for chain in graph.chains)
    periods = [chain.event.period for chain in graph.chains if chain.event is not None]
    if not periods:
        return 64
    return max(64, 10 * total // min(periods))


def _interferers(
    chain: Chain,
    range_nodes: Sequence[TaskNode],
    graph: TaskGraph,
    cfg: Configuration,
    ranks: Mapping[QualId, int],
) -> list[tuple[Chain, list[TaskNode]]]:
    """Per other chain, the tasks that can preempt the range: mapped onto one
    of the range's resources and owned by a thread that outranks the range's
    lowest-priority thread."""
    resources = {cfg.mapping[n.task_id] for n in range_nodes}
    floor = max(ranks[n.thread] for n in range_nodes)
    out: list[tuple[Chain, list[TaskNode]]] = []
    for other in graph.chains:
        if other.root == chain.root:
            continue
        tasks = [
            n
            for n in other.nodes
            if cfg.mapping[n.task_id] in resources and ranks[n.thread] < floor
        ]
        if tasks:
            out.append((other, tasks))
    return out


def _fixed_window(base: int, interference: Iterable[tuple[EventModel | None, int]], cap: int) -> int | None:
    window = base
    for _ in range(cap):
        nxt = base + sum(
            (1 if event is None else event.eta(window)) * demand for event, demand in interference
        )
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
    every span of a graph, reads grouped demand from an `_InterferenceIndex`."""
    if model not in MODELS:
        raise ValueError(f"unknown interference model {model!r}")
    range_nodes = chain.span_nodes(span)
    if not range_nodes:
        return 0
    own = sum(n.wcet for n in range_nodes)
    interferers = _interferers(chain, range_nodes, graph, cfg, ranks)
    if model == SINGLE_BLOCKING:
        return own + sum(n.wcet for _, tasks in interferers for n in tasks)
    interference = [
        (other.event, sum(n.wcet for n in tasks)) for other, tasks in interferers
    ]
    return _busy_window(chain.event, own, interference, _iteration_cap(graph))


class _InterferenceIndex:
    """Per resource and event model, the ranks of the resource's tasks in
    ascending order and their cumulative WCET, built once per (graph,
    configuration).  The tasks that can preempt a span on one resource are
    a prefix of that order, so a span's demand is a bisection per resource
    and model, less its own chain's tasks in the prefixes."""

    def __init__(self, graph: TaskGraph, cfg: Configuration, ranks: Mapping[QualId, int]) -> None:
        tasks: dict[str, dict[EventModel | None, list[tuple[int, int]]]] = {}
        for chain in graph.chains:
            for n in chain.nodes:
                per_event = tasks.setdefault(cfg.mapping[n.task_id], {})
                per_event.setdefault(chain.event, []).append((ranks[n.thread], n.wcet))
        self.prefixes: dict[str, list[tuple[EventModel | None, list[int], list[int]]]] = {}
        for resource, per_event in tasks.items():
            self.prefixes[resource] = []
            for event, rows in per_event.items():
                rows.sort()
                cumulative = list(accumulate((wcet for _, wcet in rows), initial=0))
                self.prefixes[resource].append((event, [rank for rank, _ in rows], cumulative))
        self.mapping = cfg.mapping
        self.ranks = ranks

    def bound(self, chain: Chain, span: tuple[int, int], model: str, cap: int) -> int | None:
        """`chain_latency_bound` of the span on the indexed graph."""
        range_nodes = chain.span_nodes(span)
        if not range_nodes:
            return 0
        own = sum(n.wcet for n in range_nodes)
        demand = self._demand(chain, range_nodes)
        if model == SINGLE_BLOCKING:
            return own + sum(demand.values())
        return _busy_window(chain.event, own, demand.items(), cap)

    def _demand(self, chain: Chain, range_nodes: Sequence[TaskNode]) -> dict[EventModel | None, int]:
        """Per event model, the summed WCET of the other chains' tasks that
        can preempt the span."""
        resources = {self.mapping[n.task_id] for n in range_nodes}
        floor = max(self.ranks[n.thread] for n in range_nodes)
        demand: dict[EventModel | None, int] = {}
        for resource in resources:
            for event, ranked, cumulative in self.prefixes[resource]:
                wcet = cumulative[bisect_left(ranked, floor)]
                if wcet:
                    demand[event] = demand.get(event, 0) + wcet
        own = sum(
            n.wcet
            for n in chain.nodes
            if self.mapping[n.task_id] in resources and self.ranks[n.thread] < floor
        )
        if own:
            demand[chain.event] -= own
            if not demand[chain.event]:
                del demand[chain.event]
        return demand


# ---------------------------------------------------------------------------
# Verdicts and feedback


@dataclass(frozen=True)
class TimingVerdict:
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


@dataclass(frozen=True)
class TimingReport:
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


def _conn_lits(chains: Iterable[Chain]) -> set[Literal]:
    return {ConnLit(*edge) for chain in chains for edge in chain.connections_used}


def _map_lits(nodes: Iterable[TaskNode], cfg: Configuration) -> set[Literal]:
    return {MapLit(n.component, n.task, cfg.mapping[n.task_id]) for n in nodes}


def _overload_forbid(graph: TaskGraph, cfg: Configuration, resource: str) -> ForbidConjunction:
    """Pin the overload on the structure that caused it: the connections of
    every contributing periodic chain plus the placement of its tasks."""
    literals: set[Literal] = set()
    for chain in graph.chains:
        if chain.event is None:
            continue
        on_resource = [n for n in chain.nodes if cfg.mapping[n.task_id] == resource]
        if not on_resource:
            continue
        literals |= _conn_lits([chain])
        literals |= _map_lits(on_resource, cfg)
    return ForbidConjunction(frozenset(literals))


def _latency_feedback(
    chain: Chain,
    range_nodes: Sequence[TaskNode],
    bound: int,
    interferers: Sequence[tuple[Chain, list[TaskNode]]],
    cfg: Configuration,
    ranks: Mapping[QualId, int],
) -> list[Constraint]:
    own = sum(n.wcet for n in range_nodes)
    structural = ForbidConjunction(
        frozenset(_conn_lits([chain]) | _map_lits(range_nodes, cfg))
    )
    if own > bound:
        # No demotion can help: the range alone exceeds the bound.
        return [structural]
    if not interferers:
        return [structural]
    context = frozenset(
        _conn_lits([chain])
        | _conn_lits(other for other, _ in interferers)
        | _map_lits(range_nodes, cfg)
        | _map_lits((n for _, tasks in interferers for n in tasks), cfg)
    )
    floor_thread = max((n.thread for n in range_nodes), key=lambda t: ranks[t])
    interfering_threads = sorted({n.thread for _, tasks in interferers for n in tasks})
    out: list[Constraint] = [
        PriorityNogood(context, frozenset((t, floor_thread) for t in interfering_threads))
    ]
    # A single interferer too big for the slack can never sit above any range
    # thread; emit one demotion nogood per (big task, range thread) pair.
    slack = bound - own
    range_threads = sorted({n.thread for n in range_nodes})
    big = sorted(
        {n.thread for _, tasks in interferers for n in tasks if n.wcet > slack}
    )
    for thread in big:
        for below in range_threads:
            out.append(PriorityNogood(context, frozenset({(thread, below)})))
    return out


def check_timing(
    graph: TaskGraph, cfg: Configuration, platform: PlatformModel, model: str
) -> TimingReport:
    """Utilization first; latency bounds only on non-overloaded systems."""
    util = utilization(graph, cfg, platform)
    overloaded = sorted(r for r, frac in util.items() if frac > 1)
    if overloaded:
        constraints = [_overload_forbid(graph, cfg, r) for r in overloaded]
        return TimingReport(model, util, (), tuple(sort_constraints(constraints)))

    ranks = cfg.ranks()
    index = _InterferenceIndex(graph, cfg, ranks)
    cap = _iteration_cap(graph)
    verdicts: list[TimingVerdict] = []
    constraints: dict[Constraint, None] = {}
    for chain in graph.chains:
        if not chain.nodes:
            continue
        if chain.requirements:
            rows = [(req.bound, req.span, req.target) for req in chain.requirements]
        else:
            rows = [(None, (0, len(chain.nodes)), qual_str(chain.root))]
        for bound, span, target in rows:
            computed = index.bound(chain, span, model, cap)
            if bound is None:
                passed = True
            else:
                passed = computed is not None and computed <= bound
            verdicts.append(TimingVerdict(target, bound, computed, passed, model))
            if not passed and bound is not None:
                range_nodes = chain.span_nodes(span)
                interferers = _interferers(chain, range_nodes, graph, cfg, ranks)
                for c in _latency_feedback(chain, range_nodes, bound, interferers, cfg, ranks):
                    constraints[c] = None
    return TimingReport(model, util, tuple(verdicts), tuple(sort_constraints(constraints)))


# ---------------------------------------------------------------------------
# Priority synthesis


def _seed_key(graphs: Sequence[TaskGraph]):
    """Deadline-monotonic seed: a thread is keyed by the tightest latency
    bound over any requirement span its tasks appear in."""
    tightest: dict[QualId, int] = {}
    for graph in graphs:
        for chain in graph.chains:
            for req in chain.requirements:
                for node in chain.span_nodes(req.span):
                    prior = tightest.get(node.thread)
                    if prior is None or req.bound < prior:
                        tightest[node.thread] = req.bound

    def key(thread: QualId):
        bound = tightest.get(thread)
        if bound is None:
            return (1, 0, thread)
        return (0, bound, thread)

    return key


def synthesize_priorities(
    threads: Sequence[QualId],
    graphs: Sequence[TaskGraph],
    nogoods: Sequence[PriorityNogood],
) -> tuple[QualId, ...] | None:
    """Find a total priority order on which no nogood holds in full, or None.

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
    """
    reverse = sorted(frozenset(threads), key=_seed_key(graphs), reverse=True)
    index = {t: i for i, t in enumerate(reverse)}
    kept = list({
        frozenset(ng.pairs)
        for ng in nogoods
        if ng.pairs and all(hi != lo and hi in index and lo in index for hi, lo in ng.pairs)
    })
    size = [len(pairs) for pairs in kept]
    holding = [0] * len(kept)  # pairs decided true, per nogood
    watch: list[list[tuple[int, int]]] = [[] for _ in reverse]  # per lo: (nogood, hi)
    for k, pairs in enumerate(kept):
        for hi, lo in pairs:
            watch[index[lo]].append((k, index[hi]))
    placed = [False] * len(reverse)

    def count(i: int, step: int) -> None:
        for k, hi in watch[i]:
            if not placed[hi]:
                holding[k] += step

    stack: list[int] = []  # indices into reverse, the lowest rank first
    start = 0
    while len(stack) < len(reverse):
        for i in range(start, len(reverse)):
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
                return None
            i = stack.pop()
            placed[i] = False
            count(i, -1)
            start = i + 1
    return tuple(reverse[i] for i in reversed(stack))
