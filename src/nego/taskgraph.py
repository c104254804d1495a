"""Task graph construction: unfold threads into per-mode execution chains.

Each time-activated thread (normal mode) or initialization thread
(initialization mode) roots one chain.  RPC steps splice the callee thread's
steps in place; SIGNAL steps fork a new chain at the callee, inheriting the
trigger's event model.  Latency requirements attach to the node ranges they
cover: whole chains for thread targets, inlined call ranges for method
targets.  The unfolding keeps the range of an inlined call or callee thread
only when a requirement targets it.

A chain stores its task nodes and, beside them, four columns indexed by
node position: the task ids, the owning threads, the WCETs and a WCET
prefix sum.  The unfolding loop fills them as it appends each node, so the
timing layer reads them instead of walking the nodes again: it sums
utilization, the iteration cap and each span's WCET from them and groups a
timing context's demand by them, a span's WCET being two prefix-sum
lookups.  A loop that keeps nodes anyway, such as the search for
interfering tasks or the simulator's segment plan, reads the node's own
fields, which cost as much as a column entry.

A chain built by hand gets its columns from `Chain.of`, which derives them
from its nodes; a chain has no default for them, so none can be analysed
as having no tasks.  A node's task id is the tuple its id column holds,
and one build shares one event model per (period, jitter), one empty
connection set and one whole-chain span per length among its chains:
every container a graph keeps alive is one more the cyclic collector
counts towards its next collection.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, NamedTuple, Sequence

from nego.dsl import Initialization, MethodRef, SoftwareModel, TaskStep, Thread, TimeActivation
from nego.model import Configuration, QualId, qual_str

NORMAL = "normal"
INITIALIZATION = "initialization"
MODES = (NORMAL, INITIALIZATION)


class GraphError(ValueError):
    pass


class CycleError(GraphError):
    pass


class StructuralError(GraphError):
    pass


class EventModel(NamedTuple):
    """Periodic activation with bounded release jitter."""

    period: int
    jitter: int

    def eta(self, window: int) -> int:
        """Max activations whose execution can fall into a window of length
        `window` that starts at a critical instant."""
        if window <= 0:
            return 0
        return -(-(window + self.jitter) // self.period)


class TaskNode(NamedTuple):
    task_id: QualId  # (component, task)
    wcet: int
    bcet: int
    resource_type: str
    thread: QualId

    @property
    def component(self) -> str:
        return self.task_id[0]

    @property
    def task(self) -> str:
        return self.task_id[1]

    def __str__(self) -> str:
        return f"{self.component}.{self.task}({self.wcet}/{self.bcet})"


class LatencyReq(NamedTuple):
    bound: int
    span: tuple[int, int]  # node index range [start, stop)
    owner: str  # component that stated the requirement
    target: str  # display text of the requirement target

    def __str__(self) -> str:
        return f"timing {self.bound} {self.target}"


class Chain(NamedTuple):
    """One chain of one mode.  `nodes` are its tasks in execution order, and
    four columns index them by position: `task_ids`, `threads` and `wcets`
    hold each node's (component, task), owning thread and WCET, and
    `prefix[i]` the summed WCET of `nodes[:i]`, so `prefix` has one entry
    more than `nodes`.  `build_task_graph` fills the columns as it unfolds
    the chain; a chain built by hand gets them from `Chain.of`."""

    root: QualId
    mode: str
    nodes: tuple[TaskNode, ...]
    task_ids: tuple[QualId, ...]
    threads: tuple[QualId, ...]
    wcets: tuple[int, ...]
    prefix: tuple[int, ...]
    event: EventModel | None  # None: released once (initialization chains)
    requirements: tuple[LatencyReq, ...] = ()
    triggered_by: tuple[QualId, int] | None = None  # (forking chain root, step index)
    connections_used: frozenset[tuple[str, str, str]] = frozenset()

    @classmethod
    def of(
        cls,
        root: QualId,
        mode: str,
        nodes: Sequence[TaskNode],
        event: EventModel | None,
        requirements: tuple[LatencyReq, ...] = (),
        triggered_by: tuple[QualId, int] | None = None,
        connections_used: frozenset[tuple[str, str, str]] = frozenset(),
    ) -> Chain:
        """The chain of these nodes, with its columns derived from them."""
        wcets = tuple(n.wcet for n in nodes)
        return cls(
            root,
            mode,
            tuple(nodes),
            tuple(n.task_id for n in nodes),
            tuple(n.thread for n in nodes),
            wcets,
            tuple(accumulate(wcets, initial=0)),
            event,
            requirements,
            triggered_by,
            connections_used,
        )

    def span_nodes(self, span: tuple[int, int]) -> tuple[TaskNode, ...]:
        return self.nodes[span[0] : span[1]]


class TaskGraph(NamedTuple):
    mode: str
    chains: tuple[Chain, ...]

    def tasks(self) -> Iterator[TaskNode]:
        for chain in self.chains:
            yield from chain.nodes

    def chain(self, root: QualId) -> Chain:
        for c in self.chains:
            if c.root == root:
                return c
        raise KeyError(qual_str(root))


def total_wcet(chain: Chain, span: tuple[int, int] | None = None) -> int:
    if span is None:
        return chain.prefix[-1]
    return chain.prefix[span[1]] - chain.prefix[span[0]]


# Per timing target: (bound, owning component, display text) of each
# requirement on it.  Thread targets are keyed by (component, thread),
# method targets by (calling component, service, method).
_Targets = dict[tuple, list[tuple[int, str, str]]]


def _timing_targets(software: SoftwareModel, cfg: Configuration) -> tuple[_Targets, _Targets]:
    """Index the selected components' latency requirements by target."""
    threads: _Targets = {}
    methods: _Targets = {}
    for comp in cfg.selected:
        for timing in software.contracts[comp].timings:
            target = timing.target
            if isinstance(target, str):
                threads.setdefault((comp, target), []).append((timing.bound, comp, target))
            else:
                key = (comp, target.service, target.method)
                methods.setdefault(key, []).append((timing.bound, comp, str(target)))
    return threads, methods


# (span, requirement rows) per inlined callee thread or call that a
# requirement targets
_Spans = list[tuple[tuple[int, int], list[tuple[int, str, str]]]]

# One chain as `_unfold_steps` unfolds it: its nodes and their columns, as
# `Chain` holds them (nodes, task ids, threads, WCETs, WCET prefix sum),
# the requirements on its inlined threads and calls, its SIGNAL forks as
# (provider, entry thread, caller component, ref, node position), and the
# connections it routes through.
_Unfolding = tuple[
    list[TaskNode],
    list[QualId],
    list[QualId],
    list[int],
    list[int],
    _Spans,
    list[tuple[str, Thread, str, MethodRef, int]],
    set[tuple[str, str, str]],
]


def _unfold_steps(
    software: SoftwareModel,
    cfg: Configuration,
    targets: tuple[_Targets, _Targets],
    component: str,
    thread: Thread,
    seed_conns: frozenset[tuple[str, str, str]],
    chain_root: QualId,
) -> _Unfolding:
    """Unfold the thread's steps, splicing each RPC callee's entry thread in
    place, and fill the chain's columns as each node is appended.
    Iterative, one frame per call level, so the depth of an RPC chain is
    bounded by memory rather than the interpreter stack."""
    out: _Unfolding = ([], [], [], [], [0], [], [], set(seed_conns))
    nodes, task_ids, threads, wcets, prefix, spans, forks, connections = out
    thread_targets, method_targets = targets
    routes, contracts = cfg.routes, software.contracts
    total = 0
    # Per thread on the call path: (component, thread id, its remaining
    # steps, the RPC that entered it, the node position where that call began).
    frames: list[tuple[str, QualId, Iterator, MethodRef | None, int]] = [
        (component, chain_root, iter(thread.steps), None, 0)
    ]
    on_path = {component}
    while frames:
        component, thread_id, steps, _, _ = frames[-1]
        for step in steps:
            if isinstance(step, TaskStep):
                task_id, wcet = (component, step.name), step.wcet
                nodes.append(TaskNode(task_id, wcet, step.bcet, step.resource_type, thread_id))
                task_ids.append(task_id)
                threads.append(thread_id)
                wcets.append(wcet)
                total += wcet
                prefix.append(total)
                continue
            ref = step.ref
            route = routes.get((component, ref.service))
            if route is None:
                raise StructuralError(
                    f"chain {qual_str(chain_root)}: {component!r} has no connection for service {ref.service!r}"
                )
            connections.add(route)
            provider = route[2]
            entry = contracts[provider].entry_thread(ref.service, ref.method)
            if entry is None:
                raise StructuralError(
                    f"chain {qual_str(chain_root)}: provider {provider!r} has no entry thread"
                    f" for {ref.service}.{ref.method}"
                )
            if step.kind == "SIGNAL":
                forks.append((provider, entry, component, ref, len(nodes)))
                continue
            if provider in on_path:
                cycle = " -> ".join([f[0] for f in frames] + [provider])
                raise CycleError(f"chain {qual_str(chain_root)}: call cycle {cycle}")
            on_path.add(provider)
            frames.append((provider, (provider, entry.name), iter(entry.steps), ref, len(nodes)))
            break
        else:
            _, _, _, ref, start = frames.pop()
            on_path.discard(component)
            if frames:
                rows = thread_targets.get(thread_id)
                if rows:
                    spans.append(((start, len(nodes)), rows))
                if method_targets:
                    rows = method_targets.get((frames[-1][0], ref.service, ref.method))
                    if rows:
                        spans.append(((start, len(nodes)), rows))
    return out


def _attach_requirements(
    targets: tuple[_Targets, _Targets],
    chain_root: QualId,
    whole: tuple[int, int],
    spans: _Spans,
    trigger: tuple[str, MethodRef] | None,
) -> tuple[LatencyReq, ...]:
    """The requirements on the spans a chain unfolded: its root thread,
    which covers the `whole` chain, the inlined threads and calls in
    `spans`, and the SIGNAL that forked the chain, which covers the whole
    chain too."""
    threads, methods = targets
    found = [(whole, threads.get(chain_root, ())), *spans]
    if trigger is not None:
        caller, ref = trigger
        found.append((whole, methods.get((caller, ref.service, ref.method), ())))
    reqs = [LatencyReq(bound, span, owner, target) for span, rows in found for bound, owner, target in rows]
    if len(reqs) > 1:
        reqs.sort(key=lambda r: (r.span, r.bound, r.owner, r.target))
    return tuple(reqs)


_NO_CONNECTIONS: frozenset[tuple[str, str, str]] = frozenset()

# A chain root waiting to be unfolded: (component, thread, event model,
# (forking chain root, step index), (caller, SIGNAL ref), connections so far).
_Pending = tuple[
    str,
    Thread,
    EventModel | None,
    tuple[QualId, int] | None,
    tuple[str, MethodRef] | None,
    frozenset[tuple[str, str, str]],
]


def build_task_graph(software: SoftwareModel, cfg: Configuration, mode: str) -> TaskGraph:
    """Unfold the configuration's chains for one mode.

    Tasks never activated in the mode simply appear in no chain; a task
    reachable through two different chains (or twice in one) is rejected.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    pending: list[_Pending] = []
    events: dict[tuple[int, int], EventModel] = {}  # one model per (period, jitter)
    for comp in sorted(cfg.selected):
        for thread in software.contracts[comp].threads:
            activation = thread.activation
            if mode == NORMAL and isinstance(activation, TimeActivation):
                key = (activation.period, activation.jitter)
                event = events.get(key)
                if event is None:
                    event = events[key] = EventModel(*key)
                pending.append((comp, thread, event, None, None, _NO_CONNECTIONS))
            elif mode == INITIALIZATION and isinstance(activation, Initialization):
                pending.append((comp, thread, None, None, None, _NO_CONNECTIONS))

    targets = _timing_targets(software, cfg) if pending else ({}, {})
    chains: list[Chain] = []
    seen_tasks: dict[QualId, QualId] = {}
    seen_roots: set[QualId] = set()
    wholes: dict[int, tuple[int, int]] = {}  # one whole-chain span per length
    while pending:
        comp, thread, event, triggered_by, trigger, seed_conns = pending.pop(0)
        root = (comp, thread.name)
        if root in seen_roots:
            raise StructuralError(f"thread {qual_str(root)} activated by more than one chain")
        seen_roots.add(root)
        nodes, task_ids, threads, wcets, prefix, spans, forks, connections = _unfold_steps(
            software, cfg, targets, comp, thread, seed_conns, root
        )
        if event is not None and not nodes:
            raise StructuralError(f"chain {qual_str(root)}: periodic chain unfolds to no tasks")
        for task in task_ids:
            prior = seen_tasks.get(task)
            if prior is not None:
                raise StructuralError(
                    f"task {qual_str(task)} appears in chain {qual_str(prior)}"
                    f" and chain {qual_str(root)} in {mode} mode"
                )
            seen_tasks[task] = root
        whole = wholes.get(len(nodes))
        if whole is None:
            whole = wholes[len(nodes)] = (0, len(nodes))
        reqs = _attach_requirements(targets, root, whole, spans, trigger)
        used = frozenset(connections) if connections else _NO_CONNECTIONS
        chains.append(
            Chain(
                root,
                mode,
                tuple(nodes),
                tuple(task_ids),
                tuple(threads),
                tuple(wcets),
                tuple(prefix),
                event,
                reqs,
                triggered_by,
                used,
            )
        )
        for provider, entry, caller, ref, position in forks:
            trigger_edge = frozenset({(caller, ref.service, provider)})
            pending.append((provider, entry, event, (root, position), (caller, ref), used | trigger_edge))
    chains.sort(key=lambda c: c.root)
    return TaskGraph(mode, tuple(chains))


def render_chain(chain: Chain) -> str:
    if chain.event is None:
        period, jitter = "-", "-"
    else:
        period, jitter = str(chain.event.period), str(chain.event.jitter)
    body = " -> ".join(str(n) for n in chain.nodes) if chain.nodes else "(empty)"
    return f"chain {qual_str(chain.root)} mode={chain.mode} period={period} jitter={jitter}: {body}"


def render_graph(graph: TaskGraph) -> str:
    out = []
    for chain in graph.chains:
        out.append(render_chain(chain))
        for req in chain.requirements:
            covered = ", ".join(str(n) for n in chain.span_nodes(req.span))
            out.append(f"  {req} over [{covered}]")
    return "\n".join(out) + "\n" if out else ""
