"""Task graph construction: unfold threads into per-mode execution chains.

Each time-activated thread (normal mode) or initialization thread
(initialization mode) roots one chain.  RPC steps splice the callee thread's
steps in place; SIGNAL steps fork a new chain at the callee, inheriting the
trigger's event model.  Latency requirements attach to the task ranges they
cover: whole chains for thread targets, inlined call ranges for method
targets.  The unfolding keeps the range of an inlined call or callee thread
only when a requirement targets it.

A chain holds its tasks as five columns indexed by position: the task
ids, the owning threads, the WCETs, the BCETs and a WCET prefix sum.  The
unfolding loop fills them as it appends each task, and every reader uses
the same positions: the timing layer sums utilization, the iteration cap
and each span's WCET from them and groups a timing context's demand by
them, a span's WCET being two prefix-sum lookups; the simulator builds its
segment plan from them; and `render_graph` prints each task from them.

A chain built by hand gets its columns from `Chain.of`, which takes
(task id, thread, wcet, bcet) rows and derives the prefix sum; a chain has
no default for its columns, so none can be analysed as having no tasks.
One build shares one event model per (period, jitter), one empty
connection set and one whole-chain span per length among its chains:
every container a graph keeps alive is one more the cyclic collector
counts towards its next collection.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple

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


class LatencyReq(NamedTuple):
    bound: int
    span: tuple[int, int]  # task position range [start, stop)
    owner: str  # component that stated the requirement
    target: str  # display text of the requirement target

    def __str__(self) -> str:
        return f"timing {self.bound} {self.target}"


class Chain(NamedTuple):
    """One chain of one mode.  Its tasks, in execution order, are five
    columns indexed by position: `task_ids`, `threads`, `wcets` and `bcets`
    hold each task's (component, task), owning thread, WCET and BCET, and
    `prefix[i]` the summed WCET of the first i tasks, so `prefix` has one
    entry more than the others.  `build_task_graph` fills the columns as it
    unfolds the chain; a chain built by hand gets them from `Chain.of`."""

    root: QualId
    mode: str
    task_ids: tuple[QualId, ...]
    threads: tuple[QualId, ...]
    wcets: tuple[int, ...]
    bcets: tuple[int, ...]
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
        tasks: Iterable[tuple[QualId, QualId, int, int]],
        event: EventModel | None,
        requirements: tuple[LatencyReq, ...] = (),
        triggered_by: tuple[QualId, int] | None = None,
        connections_used: frozenset[tuple[str, str, str]] = frozenset(),
    ) -> Chain:
        """The chain of these (task id, thread, wcet, bcet) rows, with its
        WCET prefix sum derived from them."""
        task_ids, threads, wcets, bcets = tuple(zip(*tasks)) or ((), (), (), ())
        prefix = tuple(accumulate(wcets, initial=0))
        return cls(
            root, mode, task_ids, threads, wcets, bcets, prefix, event, requirements, triggered_by, connections_used
        )


class TaskGraph(NamedTuple):
    mode: str
    chains: tuple[Chain, ...]

    def chain(self, root: QualId) -> Chain:
        for c in self.chains:
            if c.root == root:
                return c
        raise KeyError(qual_str(root))


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

# One chain as `_unfold_steps` unfolds it: its columns, as `Chain` holds
# them (task ids, threads, WCETs, BCETs, WCET prefix sum), the requirements
# on its inlined threads and calls, its SIGNAL forks as (provider, entry
# thread, caller component, ref, task position), and the connections it
# routes through.
_Unfolding = tuple[
    list[QualId],
    list[QualId],
    list[int],
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
    place, and fill the chain's columns as each task is appended.
    Iterative, one frame per call level, so the depth of an RPC chain is
    bounded by memory rather than the interpreter stack."""
    out: _Unfolding = ([], [], [], [], [0], [], [], set(seed_conns))
    task_ids, threads, wcets, bcets, prefix, spans, forks, connections = out
    thread_targets, method_targets = targets
    routes, contracts = cfg.routes, software.contracts
    total = 0
    # Per thread on the call path: (component, thread id, its remaining
    # steps, the RPC that entered it, the task position where that call began).
    frames: list[tuple[str, QualId, Iterator, MethodRef | None, int]] = [
        (component, chain_root, iter(thread.steps), None, 0)
    ]
    on_path = {component}
    while frames:
        component, thread_id, steps, _, _ = frames[-1]
        for step in steps:
            if isinstance(step, TaskStep):
                wcet = step.wcet
                task_ids.append((component, step.name))
                threads.append(thread_id)
                wcets.append(wcet)
                bcets.append(step.bcet)
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
                forks.append((provider, entry, component, ref, len(task_ids)))
                continue
            if provider in on_path:
                cycle = " -> ".join([f[0] for f in frames] + [provider])
                raise CycleError(f"chain {qual_str(chain_root)}: call cycle {cycle}")
            on_path.add(provider)
            frames.append((provider, (provider, entry.name), iter(entry.steps), ref, len(task_ids)))
            break
        else:
            _, _, _, ref, start = frames.pop()
            on_path.discard(component)
            if frames:
                rows = thread_targets.get(thread_id)
                if rows:
                    spans.append(((start, len(task_ids)), rows))
                if method_targets:
                    rows = method_targets.get((frames[-1][0], ref.service, ref.method))
                    if rows:
                        spans.append(((start, len(task_ids)), rows))
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
        task_ids, threads, wcets, bcets, prefix, spans, forks, connections = _unfold_steps(
            software, cfg, targets, comp, thread, seed_conns, root
        )
        if event is not None and not task_ids:
            raise StructuralError(f"chain {qual_str(root)}: periodic chain unfolds to no tasks")
        for task in task_ids:
            prior = seen_tasks.get(task)
            if prior is not None:
                raise StructuralError(
                    f"task {qual_str(task)} appears in chain {qual_str(prior)}"
                    f" and chain {qual_str(root)} in {mode} mode"
                )
            seen_tasks[task] = root
        whole = wholes.get(len(task_ids))
        if whole is None:
            whole = wholes[len(task_ids)] = (0, len(task_ids))
        reqs = _attach_requirements(targets, root, whole, spans, trigger)
        used = frozenset(connections) if connections else _NO_CONNECTIONS
        chains.append(
            Chain(
                root,
                mode,
                tuple(task_ids),
                tuple(threads),
                tuple(wcets),
                tuple(bcets),
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


def render_graph(graph: TaskGraph) -> str:
    """One line per chain, its tasks as `C.t(wcet/bcet)`, and one line per
    requirement with the tasks its span covers."""
    out = []
    for chain in graph.chains:
        if chain.event is None:
            period, jitter = "-", "-"
        else:
            period, jitter = str(chain.event.period), str(chain.event.jitter)
        tasks = [
            f"{qual_str(task)}({wcet}/{bcet})" for task, wcet, bcet in zip(chain.task_ids, chain.wcets, chain.bcets)
        ]
        body = " -> ".join(tasks) if tasks else "(empty)"
        out.append(f"chain {qual_str(chain.root)} mode={chain.mode} period={period} jitter={jitter}: {body}")
        for req in chain.requirements:
            start, stop = req.span
            out.append(f"  {req} over [{', '.join(tasks[start:stop])}]")
    return "\n".join(out) + "\n" if out else ""
