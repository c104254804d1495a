"""Discrete-event simulator: exact preemptive fixed-priority scheduling.

Executes task chains with integer wcet durations under a concrete release
scenario (per-chain offsets plus per-activation jitter draws) and records
the observed latency of every requirement span.  `worst_observed` sweeps
release offsets on a unit grid with two jitter patterns and keeps the
per-span maxima; it is the ground truth the analytic bounds must dominate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import itemgetter

from nego.model import Configuration, QualId, qual_str
from nego.taskgraph import EventModel, TaskGraph

SpanKey = tuple[QualId, tuple[int, int]]


@dataclass(frozen=True)
class ReleaseScenario:
    """Concrete releases: offsets and jitter draws are indexed like
    `graph.chains`; missing draws are zero."""

    offsets: tuple[int, ...]
    draws: tuple[tuple[int, ...], ...]
    horizon: int


# Jitter draws: maximal on the first activation then zero, or zero throughout.
JITTER_PATTERNS = ("max-first", "zero")


def _pattern_draws(graph: TaskGraph, pattern: str) -> tuple[tuple[int, ...], ...]:
    """Per-chain jitter draws of one pattern, indexed like `graph.chains`;
    a chain without jitter gets no draw, since a missing draw is zero."""
    if pattern not in JITTER_PATTERNS:
        raise ValueError(f"unknown jitter pattern {pattern!r}")
    draws = []
    for chain in graph.chains:
        if pattern == "max-first" and chain.event is not None and chain.event.jitter:
            draws.append((chain.event.jitter,))
        else:
            draws.append(())
    return tuple(draws)


def synchronous_scenario(graph: TaskGraph, horizon: int, pattern: str = "max-first") -> ReleaseScenario:
    """All chains released together at zero, jitter drawn by `pattern`."""
    return ReleaseScenario(tuple(0 for _ in graph.chains), _pattern_draws(graph, pattern), horizon)


# Caps on the work one call may take on, far above every input the corpus,
# the tests and the soundness sweeps simulate (at most 46 jobs in one run,
# 200 grid points and 5440 jobs in one sweep): a run releasing more jobs, or
# a sweep over more offset vectors or releasing more jobs in all its runs,
# is refused before any job is built.
MAX_JOBS = 100_000
MAX_GRID = 10_000
MAX_SWEEP_JOBS = 1_000_000


def _check_run(graph: TaskGraph, horizon: int) -> int:
    """The most jobs a run over `horizon` releases: a periodic chain at
    most ceil(horizon / period), a one-shot chain one.  A horizon below 1,
    or more than MAX_JOBS jobs, is refused."""
    if horizon < 1:
        raise ValueError(f"horizon {horizon} is below 1")
    jobs = sum(-(-horizon // c.event.period) if c.event is not None else 1 for c in graph.chains if c.nodes)
    if jobs > MAX_JOBS:
        raise ValueError(
            f"a run over horizon {horizon} releases up to {jobs} jobs, more than the cap of {MAX_JOBS}"
        )
    return jobs


def random_scenario(graph: TaskGraph, rng, horizon: int) -> ReleaseScenario:
    _check_run(graph, horizon)
    offsets = []
    draws = []
    for chain in graph.chains:
        if chain.event is None:
            offsets.append(0)
            draws.append(())
            continue
        offsets.append(rng.randrange(chain.event.period))
        count = -(-horizon // chain.event.period) + 1
        draws.append(tuple(rng.randint(0, chain.event.jitter) for _ in range(count)))
    return ReleaseScenario(tuple(offsets), tuple(draws), horizon)


@dataclass
class SimResult:
    latencies: dict[SpanKey, list[int]]
    partial: bool
    trace: tuple[str, ...] = ()

    def maxima(self) -> dict[SpanKey, int]:
        return {key: max(values) for key, values in self.latencies.items() if values}


class _Plan:
    """What the engine needs from a (graph, configuration), computed once.

    `chains` lists, for each chain with nodes, its index in `graph.chains`,
    its event model and the (resource index, thread rank, wcet) of each
    node; `spans` maps the same indices to the chain's spans as (key, start,
    stop) in span order, and `roots` and `tasks` to the names trace lines
    print.  Resources are indexed in name order.
    """

    def __init__(self, graph: TaskGraph, cfg: Configuration) -> None:
        ranks = cfg.ranks()
        tasks = [node.task_id for chain in graph.chains for node in chain.nodes]
        self.resources = sorted({cfg.mapping[task] for task in tasks})
        index = {resource: i for i, resource in enumerate(self.resources)}
        self.chains: list[tuple[int, EventModel | None, tuple[tuple[int, int, int], ...]]] = []
        self.spans: dict[int, tuple[tuple[SpanKey, int, int], ...]] = {}
        self.roots: dict[int, str] = {}
        self.tasks: dict[int, tuple[str, ...]] = {}
        for ci, chain in enumerate(graph.chains):
            if not chain.nodes:
                continue
            nodes = tuple((index[cfg.mapping[n.task_id]], ranks[n.thread], n.wcet) for n in chain.nodes)
            spans = {(0, len(chain.nodes))}
            spans.update(req.span for req in chain.requirements)
            self.chains.append((ci, chain.event, nodes))
            self.spans[ci] = tuple(((chain.root, span), span[0], span[1]) for span in sorted(spans))
            self.roots[ci] = qual_str(chain.root)
            self.tasks[ci] = tuple(qual_str(n.task_id) for n in chain.nodes)


# A job is one list, so that its key heads it and the heaps order it without
# a wrapper: [rank of the current node's thread, release, chain index,
# activation, remaining work, node index, nodes, completion times].  The
# first four fields are unique per job, so comparison never goes past them.
_RANK, _RELEASE, _CHAIN, _ACTIVATION, _REMAINING, _NODE, _NODES, _DONE = range(8)


def _run(
    plan: _Plan,
    offsets: tuple[int, ...],
    draws: tuple[tuple[int, ...], ...],
    horizon: int,
    lines: list[str] | None = None,
) -> list[list]:
    """Schedule every job released before `horizon` to completion.

    Each resource keeps a heap of its ready jobs; the top of each heap runs.
    Time jumps to the next release or the soonest completion of a top.
    Returns the jobs in (chain, activation) order; with `lines`, appends the
    release, dispatch, preempt and complete trace lines to it.  Callers
    check the horizon with `_check_run` first.
    """
    jobs: list[list] = []
    for ci, event, nodes in plan.chains:
        offset = offsets[ci]
        chain_draws = draws[ci]
        if event is None:
            releases = [offset + (chain_draws[0] if chain_draws else 0)]
        else:
            releases = []
            k = 0
            while offset + k * event.period < horizon:
                draw = chain_draws[k] if k < len(chain_draws) else 0
                if not 0 <= draw <= event.jitter:
                    raise ValueError(f"jitter draw {draw} outside [0, {event.jitter}]")
                releases.append(offset + k * event.period + draw)
                k += 1
        _, rank, wcet = nodes[0]
        for k, release in enumerate(releases):
            jobs.append([rank, release, ci, k, wcet, 0, nodes, []])
    pending = sorted(jobs, key=itemgetter(_RELEASE))  # stable: ties keep (chain, activation)

    heaps: list[list[list]] = [[] for _ in plan.resources]
    if lines is not None:
        roots, tasks = plan.roots, plan.tasks
        for job in pending:
            lines.append(f"t={job[_RELEASE]} release {roots[job[_CHAIN]]}#{job[_ACTIVATION]}")
        running: list[list | None] = [None] * len(heaps)

    count = len(pending)
    i = 0
    t = pending[0][_RELEASE] if pending else 0
    while True:
        while i < count and pending[i][_RELEASE] <= t:
            job = pending[i]
            heappush(heaps[job[_NODES][0][0]], job)
            i += 1
        if lines is not None:
            # a job leaves a heap only by finishing its node, which clears
            # `running`, so a new top over a running job preempts it
            for r, heap in enumerate(heaps):
                if heap and heap[0] is not running[r]:
                    prev, job = running[r], heap[0]
                    if prev is not None:
                        lines.append(f"t={t} preempt {tasks[prev[_CHAIN]][prev[_NODE]]}#{prev[_ACTIVATION]}")
                    lines.append(f"t={t} dispatch {tasks[job[_CHAIN]][job[_NODE]]}#{job[_ACTIVATION]}")
                    running[r] = job

        nxt = pending[i][_RELEASE] if i < count else None
        for heap in heaps:
            if heap:
                end = t + heap[0][_REMAINING]
                if nxt is None or end < nxt:
                    nxt = end
        if nxt is None:
            break

        # Pop every finished top before any job moves on: a job whose next
        # node is on a resource whose top finished at this instant must not
        # be pushed there first.
        delta = nxt - t
        finished = []
        for r, heap in enumerate(heaps):
            if heap:
                job = heap[0]
                job[_REMAINING] -= delta
                if not job[_REMAINING]:
                    heappop(heap)
                    finished.append(job)
                    if lines is not None:
                        lines.append(f"t={nxt} complete {tasks[job[_CHAIN]][job[_NODE]]}#{job[_ACTIVATION]}")
                        running[r] = None
        for job in finished:
            job[_DONE].append(nxt)
            node = job[_NODE] + 1
            nodes = job[_NODES]
            if node < len(nodes):
                resource, job[_RANK], job[_REMAINING] = nodes[node]
                job[_NODE] = node
                heappush(heaps[resource], job)
        t = nxt
    return jobs


def _observations(plan: _Plan, jobs: list[list]):
    """(span key, latency) of every span of every job, in job order."""
    spans = plan.spans
    for job in jobs:
        release, done = job[_RELEASE], job[_DONE]
        for key, start, stop in spans[job[_CHAIN]]:
            yield key, done[stop - 1] - (release if start == 0 else done[start - 1])


def simulate(
    graph: TaskGraph, cfg: Configuration, scenario: ReleaseScenario, trace: bool = False
) -> SimResult:
    _check_run(graph, scenario.horizon)
    plan = _Plan(graph, cfg)
    lines: list[str] | None = [] if trace else None
    jobs = _run(plan, scenario.offsets, scenario.draws, scenario.horizon, lines)
    latencies: dict[SpanKey, list[int]] = {key: [] for keys in plan.spans.values() for key, _, _ in keys}
    for key, value in _observations(plan, jobs):
        latencies[key].append(value)
    partial = any(job[_DONE][-1] > scenario.horizon for job in jobs)
    return SimResult(latencies, partial, tuple(lines or ()))


def _hyperperiod(graph: TaskGraph) -> int:
    periods = [chain.event.period for chain in graph.chains if chain.event is not None]
    if not periods:
        return max((sum(n.wcet for n in c.nodes) for c in graph.chains), default=1)
    return math.lcm(*periods)


def default_horizon(graph: TaskGraph) -> int:
    return 2 * _hyperperiod(graph)


def worst_observed(
    graph: TaskGraph, cfg: Configuration, horizon: int | None = None
) -> dict[SpanKey, int]:
    """Maximum latency per span over the offset grid and jitter patterns.

    The first chain anchors the grid at offset zero; every other periodic
    chain sweeps each offset in [0, period).  One-shot chains stay at zero.
    Patterns that draw alike, as both do when no chain has jitter, run once.
    A grid of more than MAX_GRID offset vectors, or runs releasing more
    than MAX_SWEEP_JOBS jobs in all, is refused.
    """
    if horizon is None:
        horizon = default_horizon(graph)
    jobs = _check_run(graph, horizon)
    axes: list[range] = []
    for ci, chain in enumerate(graph.chains):
        if ci == 0 or chain.event is None:
            axes.append(range(1))
        else:
            axes.append(range(chain.event.period))
    grid = math.prod(map(len, axes))
    if grid > MAX_GRID:
        raise ValueError(f"the offset sweep has {grid} grid points, more than the cap of {MAX_GRID}")
    draws = list(dict.fromkeys(_pattern_draws(graph, pattern) for pattern in JITTER_PATTERNS))
    total = grid * len(draws) * jobs
    if total > MAX_SWEEP_JOBS:
        raise ValueError(
            f"the offset sweep runs {grid * len(draws)} schedules of up to {jobs} jobs, "
            f"{total} in all, more than the cap of {MAX_SWEEP_JOBS}"
        )
    plan = _Plan(graph, cfg)
    maxima: dict[SpanKey, int] = {}
    for offsets in itertools.product(*axes):
        for pattern_draws in draws:
            for key, value in _observations(plan, _run(plan, offsets, pattern_draws, horizon)):
                if key not in maxima or value > maxima[key]:
                    maxima[key] = value
    return maxima
