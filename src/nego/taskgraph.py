"""Task graph construction: unfold threads into per-mode execution chains.

Each time-activated thread (normal mode) or initialization thread
(initialization mode) roots one chain.  RPC steps splice the callee thread's
steps in place; SIGNAL steps fork a new chain at the callee, inheriting the
trigger's event model.  Latency requirements attach to the node ranges they
cover: whole chains for thread targets, inlined call ranges for method
targets.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

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
    component: str
    task: str
    wcet: int
    bcet: int
    resource_type: str
    thread: QualId

    @property
    def task_id(self) -> QualId:
        return (self.component, self.task)

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
    root: QualId
    mode: str
    nodes: tuple[TaskNode, ...]
    event: EventModel | None  # None: released once (initialization chains)
    requirements: tuple[LatencyReq, ...] = ()
    triggered_by: tuple[QualId, int] | None = None  # (forking chain root, step index)
    connections_used: frozenset[tuple[str, str, str]] = frozenset()

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
    nodes = chain.nodes if span is None else chain.span_nodes(span)
    return sum(n.wcet for n in nodes)


class _Unfolding(NamedTuple):
    """What `_unfold_steps` appends to; each unfolding gets containers of
    its own."""

    nodes: list[TaskNode]
    # ((caller component, service, method), span) per inlined RPC call
    call_spans: list[tuple[tuple[str, str, str], tuple[int, int]]]
    # (component, thread name, span) per inlined callee thread
    thread_spans: list[tuple[QualId, tuple[int, int]]]
    # (provider, entry thread, caller component, ref, node position) per SIGNAL
    forks: list[tuple[str, Thread, str, MethodRef, int]]
    connections: set[tuple[str, str, str]]


def _provider_entry(software: SoftwareModel, provider: str, ref: MethodRef, chain: QualId) -> Thread:
    entry = software.contracts[provider].entry_thread(ref.service, ref.method)
    if entry is None:
        raise StructuralError(
            f"chain {qual_str(chain)}: provider {provider!r} has no entry thread for {ref.service}.{ref.method}"
        )
    return entry


def _unfold_steps(
    software: SoftwareModel,
    cfg: Configuration,
    component: str,
    thread: Thread,
    out: _Unfolding,
    chain_root: QualId,
) -> None:
    """Append the thread's steps to `out`, splicing each RPC callee's entry
    thread in place.  Iterative, one frame per call level, so the depth of
    an RPC chain is bounded by memory rather than the interpreter stack."""
    # Per thread on the call path: (component, thread, its remaining steps,
    # the RPC that entered it, the node position where that call began).
    frames: list[tuple[str, Thread, Iterator, MethodRef | None, int]] = [
        (component, thread, iter(thread.steps), None, 0)
    ]
    on_path = {component}
    while frames:
        component, thread, steps, _, _ = frames[-1]
        thread_id = (component, thread.name)
        for step in steps:
            if isinstance(step, TaskStep):
                out.nodes.append(TaskNode(component, step.name, step.wcet, step.bcet, step.resource_type, thread_id))
                continue
            provider = cfg.provider_of(component, step.ref.service)
            if provider is None:
                raise StructuralError(
                    f"chain {qual_str(chain_root)}: {component!r} has no connection for service {step.ref.service!r}"
                )
            out.connections.add((component, step.ref.service, provider))
            entry = _provider_entry(software, provider, step.ref, chain_root)
            if step.kind == "SIGNAL":
                out.forks.append((provider, entry, component, step.ref, len(out.nodes)))
                continue
            if provider in on_path:
                cycle = " -> ".join([f[0] for f in frames] + [provider])
                raise CycleError(f"chain {qual_str(chain_root)}: call cycle {cycle}")
            on_path.add(provider)
            frames.append((provider, entry, iter(entry.steps), step.ref, len(out.nodes)))
            break
        else:
            _, _, _, ref, start = frames.pop()
            on_path.discard(component)
            if frames:
                span = (start, len(out.nodes))
                out.call_spans.append(((frames[-1][0], ref.service, ref.method), span))
                out.thread_spans.append((thread_id, span))


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


def _attach_requirements(
    targets: tuple[_Targets, _Targets],
    chain_root: QualId,
    unfolding: _Unfolding,
    trigger: tuple[str, MethodRef] | None,
) -> tuple[LatencyReq, ...]:
    """The requirements on the spans this chain unfolded: its root thread
    and each inlined thread, each inlined call and the SIGNAL that forked
    the chain, which covers the whole chain."""
    threads, methods = targets
    whole = (0, len(unfolding.nodes))
    found = [(whole, threads.get(chain_root, ()))]
    for thread_id, span in unfolding.thread_spans:
        found.append((span, threads.get(thread_id, ())))
    for call, span in unfolding.call_spans:
        found.append((span, methods.get(call, ())))
    if trigger is not None:
        caller, ref = trigger
        found.append((whole, methods.get((caller, ref.service, ref.method), ())))
    reqs = [LatencyReq(bound, span, owner, target) for span, rows in found for bound, owner, target in rows]
    return tuple(sorted(reqs, key=lambda r: (r.span, r.bound, r.owner, r.target)))


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
    for comp in sorted(cfg.selected):
        for thread in software.contracts[comp].threads:
            if mode == NORMAL and isinstance(thread.activation, TimeActivation):
                pending.append(
                    (comp, thread, EventModel(thread.activation.period, thread.activation.jitter), None, None, frozenset())
                )
            elif mode == INITIALIZATION and isinstance(thread.activation, Initialization):
                pending.append((comp, thread, None, None, None, frozenset()))

    targets = _timing_targets(software, cfg)
    chains: list[Chain] = []
    seen_tasks: dict[QualId, QualId] = {}
    seen_roots: set[QualId] = set()
    while pending:
        comp, thread, event, triggered_by, trigger, seed_conns = pending.pop(0)
        root = (comp, thread.name)
        if root in seen_roots:
            raise StructuralError(f"thread {qual_str(root)} activated by more than one chain")
        seen_roots.add(root)
        unfolding = _Unfolding([], [], [], [], set(seed_conns))
        _unfold_steps(software, cfg, comp, thread, unfolding, root)
        if event is not None and not unfolding.nodes:
            raise StructuralError(f"chain {qual_str(root)}: periodic chain unfolds to no tasks")
        for node in unfolding.nodes:
            prior = seen_tasks.get(node.task_id)
            if prior is not None:
                raise StructuralError(
                    f"task {qual_str(node.task_id)} appears in chain {qual_str(prior)}"
                    f" and chain {qual_str(root)} in {mode} mode"
                )
            seen_tasks[node.task_id] = root
        reqs = _attach_requirements(targets, root, unfolding, trigger)
        connections = frozenset(unfolding.connections)
        chains.append(Chain(root, mode, tuple(unfolding.nodes), event, reqs, triggered_by, connections))
        for provider, entry, caller, ref, position in unfolding.forks:
            trigger_edge = frozenset({(caller, ref.service, provider)})
            pending.append(
                (provider, entry, event, (root, position), (caller, ref), connections | trigger_edge)
            )
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
