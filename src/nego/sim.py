"""Discrete-event simulator: exact preemptive fixed-priority scheduling.

Executes task chains with integer wcet durations under a concrete release
scenario (per-chain offsets plus per-activation jitter draws) and records
the observed latency of every requirement span.  `worst_observed` sweeps
release offsets on a unit grid with two jitter patterns and keeps the
per-span maxima, raising them as each job completes its last segment; it
is the ground truth the analytic bounds must dominate.

It sweeps each group of chains that can affect one another on its own grid
(`_Plan.groups`): chains that share a resource, or a forked chain and its
trigger.  This is exact.  Each resource schedules from its own heap and a
job only visits its own chain's resources, so a group's completion times
depend only on its own releases; the maximum over the product of every
chain's offsets is the maximum over each group's own offsets.  A group of
one periodic chain whose jitter is below its period and whose segments
all run at one thread rank runs at offset 0 alone (`_sweeps_at_zero`):
its jobs run in activation order, so none is delayed by a later one, and
offset 0 releases every job any other offset releases.

A zero-jitter sweep run may stop at its group's hyperperiod W, the lcm of
the group's periods, when the group is idle there (`worst_observed`).  The
engine is deterministic and keeps its schedule under a time shift, and the
releases in each later window [kW, (k+1)W) are those of [0, W) shifted by
kW, so a run idle at W repeats its first window up to a horizon that is a
multiple of W: the idle instant behind the feasibility intervals of Leung
and Merrill (IPL 1980).  Every stop of a run is one rule, checked at its
idle instants (`_rejoins`).

Three more rules cut a sweep's runs, all exact (`worst_observed` proves
them): a max-first run stops where it rejoins the zero run at its offsets,
both idle after its drawn releases (rule 1); a lone chain whose jitter plus
total wcet fits in its period runs no max-first pattern (rule 2); and on
one resource, with one thread rank per chain, the zero run at the all-zero
offsets stands for every zero run, since the synchronous release is the
critical instant (rule 4; Liu and Layland, JACM 1973; Lehoczky, RTSS 1990).

A job moves through its chain one segment at a time: a run of consecutive
tasks on one resource at one thread rank that no span starts or stops
inside (`_Plan`, built from the chain's task id, thread and WCET
columns).  Running a segment as one piece of work schedules exactly as
stepping its tasks one by one would: between two of its tasks, the job
would only leave its resource's heap and re-enter it with the same key.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from heapq import heapify, heappop, heappush, heapreplace
from operator import itemgetter
from typing import NamedTuple

from nego.model import Configuration, QualId, qual_str
from nego.taskgraph import EventModel, TaskGraph

SpanKey = tuple[QualId, tuple[int, int]]


class ReleaseScenario(NamedTuple):
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


# Caps on the work one call may take on, far above every input the corpus
# and the soundness sweeps simulate (at most 46 jobs in one run, 101 grid
# points and 5440 jobs in one sweep) and every input of the tests but those
# of the caps (at most 52 jobs in one run, 4000 grid points and 48000 jobs
# in one sweep): a run releasing more jobs, or a sweep over more offset
# vectors or releasing more jobs in all its runs, is refused before any job
# is built.  A sweep's counts add up over its groups, as its runs do: each
# group's own offset vectors, one where the lone-chain rule holds, times
# the patterns it runs, times the jobs its chains release in one run.  The
# caps count this static sweep, an upper bound on what the sweep does:
# every job released before the horizon, though a run that stops at its
# group's hyperperiod or at an idle instant releases, and so builds, fewer,
# and every run of it, though rules 2 and 4 of `worst_observed` skip some.
MAX_JOBS = 100_000
MAX_GRID = 10_000
MAX_SWEEP_JOBS = 1_000_000


def _check_run(graph: TaskGraph, horizon: int) -> None:
    """The most jobs a run over `horizon` releases: a periodic chain at
    most ceil(horizon / period), a one-shot chain one.  A horizon below 1,
    or more than MAX_JOBS jobs, is refused."""
    if horizon < 1:
        raise ValueError(f"horizon {horizon} is below 1")
    jobs = sum(-(-horizon // c.event.period) if c.event is not None else 1 for c in graph.chains if c.task_ids)
    if jobs > MAX_JOBS:
        raise ValueError(
            f"a run over horizon {horizon} releases up to {jobs} jobs, more than the cap of {MAX_JOBS}"
        )


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


class SimResult(NamedTuple):
    latencies: dict[SpanKey, list[int]]
    partial: bool
    trace: tuple[str, ...] = ()

    def maxima(self) -> dict[SpanKey, int]:
        return {key: max(values) for key, values in self.latencies.items() if values}


class _Plan:
    """What the engine needs from a (graph, configuration), computed once.

    `chains` lists, for each chain with tasks, its index in `graph.chains`,
    its event model, its segments as (resource index, thread rank, wcet)
    and its total wcet.  Resources are indexed in name order.

    A segment is a run of consecutive tasks on one resource and one thread
    rank that crosses no span boundary: a task joins the segment before it
    unless a span starts or stops at it.  The merge is exact.  When a job
    finishes one task of a segment, it would leave its resource's heap and
    go straight back onto it with the same key; every other job that enters
    the heap at that instant enters it either way, so the heap's top is the
    same at every instant.  (The argument needs every wcet positive: a task
    of wcet 0 would complete only when its job next tops the heap.  The
    contract language refuses such a task, and so does the plan, naming it,
    for a hand-built graph.)  The boundary rule keeps every
    completion a span reads; the first task is a boundary of the whole
    chain's span, so it starts the first segment.
    With `trace`, every task is its own segment, so the trace lines name
    tasks, and `roots` and `tasks` hold the names they print.

    `keys` lists the span keys, each chain's spans in span order; `rows`
    maps the chain index to its spans as (key index, start, stop), where
    start and stop index a job's completions, whose entry 0 is the release.
    `groups` splits `chains` into the groups that can affect one another
    (`_groups`).
    """

    def __init__(self, graph: TaskGraph, cfg: Configuration, trace: bool = False) -> None:
        ranks, mapping = cfg.ranks(), cfg.mapping
        self.resources = sorted({mapping[task] for chain in graph.chains for task in chain.task_ids})
        index = {resource: i for i, resource in enumerate(self.resources)}
        self.chains: list[tuple[int, EventModel | None, tuple[tuple[int, int, int], ...], int]] = []
        self.rows: list[tuple[tuple[int, int, int], ...]] = [()] * len(graph.chains)
        slots: dict[SpanKey, int] = {}
        self.roots: dict[int, str] = {}
        self.tasks: dict[int, tuple[str, ...]] = {}
        for ci, chain in enumerate(graph.chains):
            task_ids = chain.task_ids
            if not task_ids:
                continue
            spans = sorted({(0, len(task_ids)), *[req.span for req in chain.requirements]})
            bounds = {i for span in spans for i in span}
            segments: list[tuple[int, int, int]] = []
            ends = []  # per task, the index of its segment's completion
            total = 0
            for i, (task, thread, wcet) in enumerate(zip(task_ids, chain.threads, chain.wcets)):
                resource, rank = index[mapping[task]], ranks[thread]
                if wcet < 1:
                    raise ValueError(f"task {qual_str(task)} has wcet {wcet}, below 1")
                if trace or i in bounds or segments[-1][0] != resource or segments[-1][1] != rank:
                    segments.append((resource, rank, wcet))
                else:
                    segments[-1] = (resource, rank, segments[-1][2] + wcet)
                total += wcet
                ends.append(len(segments))
            self.chains.append((ci, chain.event, tuple(segments), total))
            root = chain.root
            self.rows[ci] = tuple([
                (slots.setdefault((root, (start, stop)), len(slots)), ends[start - 1] if start else 0, ends[stop - 1])
                for start, stop in spans
            ])
            if trace:
                self.roots[ci] = qual_str(chain.root)
                self.tasks[ci] = tuple(map(qual_str, task_ids))
        self.keys = list(slots)
        # one resource or one chain is one group; the union-find would add
        # about a fifth to the sweep of one chain over two resources
        single = len(self.resources) == 1 or len(self.chains) == 1
        self.groups = [self.chains] if single else _groups(graph, self.chains)


def _groups(graph: TaskGraph, chains: list) -> list[list]:
    """`chains`, entries of `_Plan.chains`, split into the groups that can
    affect one another, each in chain order: two chains join when they
    share a resource, and a chain forked by a SIGNAL joins its trigger's."""
    link = list(range(len(graph.chains)))  # union-find over chain indices

    def top(ci: int) -> int:
        while link[ci] != ci:
            ci = link[ci]
        return ci

    def join(a: int, b: int) -> None:
        a, b = top(a), top(b)
        link[max(a, b)] = min(a, b)

    index_of = {chain.root: ci for ci, chain in enumerate(graph.chains)}
    for ci, chain in enumerate(graph.chains):
        if chain.triggered_by is not None:
            join(ci, index_of[chain.triggered_by[0]])
    first: dict[int, int] = {}  # resource index -> first chain on it
    for ci, _, segments, _ in chains:
        for resource, _, _ in segments:
            join(ci, first.setdefault(resource, ci))
    groups: dict[int, list] = {}
    for entry in chains:
        groups.setdefault(top(entry[0]), []).append(entry)
    return list(groups.values())


# A job is one list, so that its key heads it and the heaps order it without
# a wrapper: [rank of the current segment's thread, release, chain index,
# activation, remaining work, segments, completion times].  The completions
# start with the release, so the job is in segment len(completions) - 1.
# The first four fields are unique per job, so comparison never goes past
# them.
_RANK, _RELEASE, _CHAIN, _ACTIVATION, _REMAINING, _SEGMENTS, _DONE = range(7)


def _run(
    plan: _Plan,
    offsets: tuple[int, ...],
    draws: tuple[tuple[int, ...], ...],
    horizon: int,
    chains: list,
    maxima: list[int] | None = None,
    lines: list[str] | None = None,
    idle: list[int] | None = None,
    until: tuple[list[int] | None, int, int] | None = None,
) -> list[list]:
    """Schedule every job of `chains`, entries of `plan.chains`, released
    before `horizon` to completion, or until the stop `until`.

    One heap, the job source, holds every drawn activation and each
    periodic chain's next undrawn one, keyed (release, chain, activation);
    releasing an undrawn activation puts the chain's next one in it, so a
    run builds exactly the jobs it releases.  Each resource keeps a heap of
    its ready jobs; the top of each heap runs.  Time jumps to the next
    release or the soonest completion of a top.  Returns the jobs it
    released, in release order, ties by (chain, activation); with `maxima`,
    indexed like `plan.keys`, raises each span's entry to a job's latency
    there as the job completes its last segment; with `lines`, appends the
    dispatch, preempt and complete trace lines to it.  Callers check the
    horizon with `_check_run` first, and pass offsets and draws that
    `_check_scenario` accepts.

    The run is idle from each instant at which a job leaves it and every
    heap is empty up to its next release (infinity once none is left).
    With `idle`, it appends [0, first release] and each such interval to
    it, as start and end.  With `until`, (idle, period, after), the run
    returns at the first of its idle instants that comes after `after` and
    at which the run it follows, whose idle intervals are `idle`, is idle
    too (`_rejoins`); with `idle` None, it follows no run.  Every job it
    returns has completed.  `worst_observed` says why each stop it passes
    is exact.
    """
    jobs: list[list] = []
    # (release, chain index, activation, segments, the period of an undrawn
    # activation or 0)
    source = []
    for ci, event, segments, _ in chains:
        offset, chain_draws = offsets[ci], draws[ci]
        if event is None:
            source.append((offset + (chain_draws[0] if chain_draws else 0), ci, 0, segments, 0))
            continue
        period = event.period
        count = len(range(offset, horizon, period))  # activations before the horizon
        for k, draw in enumerate(chain_draws[:count]):
            source.append((offset + k * period + draw, ci, k, segments, 0))
        k = len(chain_draws)
        if k < count:
            source.append((offset + k * period, ci, k, segments, period))
    if not source:
        return jobs
    source.append((math.inf,))  # the end: later than any release
    heapify(source)

    heaps: list[list[list]] = [[] for _ in plan.resources]
    rows = plan.rows
    if lines is not None:
        tasks = plan.tasks
        running: list[list | None] = [None] * len(heaps)

    t = upcoming = source[0][0]  # the next release not yet pushed
    if idle is not None:
        idle += (0, t)
    while True:
        while upcoming <= t:
            release, ci, k, segments, period = source[0]
            if period and release + period < horizon:  # an undrawn activation: its chain's next one
                heapreplace(source, (release + period, ci, k + 1, segments, period))
            else:
                heappop(source)
            resource, rank, wcet = segments[0]
            job = [rank, release, ci, k, wcet, segments, [release]]
            jobs.append(job)
            heappush(heaps[resource], job)
            upcoming = source[0][0]
        if lines is not None:
            # a job leaves a heap only by finishing its segment, here one
            # task, which clears `running`, so a new top over a running job
            # preempts it
            for r, heap in enumerate(heaps):
                if heap and heap[0] is not running[r]:
                    prev, job = running[r], heap[0]
                    if prev is not None:
                        position = len(prev[_DONE]) - 1
                        lines.append(f"t={t} preempt {tasks[prev[_CHAIN]][position]}#{prev[_ACTIVATION]}")
                    position = len(job[_DONE]) - 1
                    lines.append(f"t={t} dispatch {tasks[job[_CHAIN]][position]}#{job[_ACTIVATION]}")
                    running[r] = job

        nxt = upcoming
        for heap in heaps:
            if heap:
                end = t + heap[0][_REMAINING]
                if end < nxt:
                    nxt = end
        if nxt == math.inf:
            return jobs

        # Pop every finished top before any job moves on: a job whose next
        # segment is on a resource whose top finished at this instant must
        # not be pushed there first.
        delta = nxt - t
        finished = []
        for r, heap in enumerate(heaps):
            if heap:
                job = heap[0]
                left = job[_REMAINING] - delta
                if left:
                    job[_REMAINING] = left
                else:
                    heappop(heap)
                    finished.append(job)
                    if lines is not None:
                        position = len(job[_DONE]) - 1
                        lines.append(f"t={nxt} complete {tasks[job[_CHAIN]][position]}#{job[_ACTIVATION]}")
                        running[r] = None
        gone = False  # whether a job left the system at this instant
        for job in finished:
            done = job[_DONE]
            done.append(nxt)
            segments = job[_SEGMENTS]
            if len(done) <= len(segments):
                resource, job[_RANK], job[_REMAINING] = segments[len(done) - 1]
                heappush(heaps[resource], job)
            else:
                gone = True
                if maxima is not None:
                    for slot, start, stop in rows[job[_CHAIN]]:
                        value = done[stop] - done[start]
                        if value > maxima[slot]:
                            maxima[slot] = value
        t = nxt
        if gone and not any(heaps):  # idle from t up to the next release
            if idle is not None:
                idle += (t, upcoming)
            # no instant of the span comes after `after` unless `upcoming` does
            if until is not None and until[2] < upcoming and _rejoins(until, t, upcoming):
                return jobs


def _rejoins(rejoin: tuple[list[int] | None, int, int], t: int, upcoming: int) -> bool:
    """Whether a run idle from `t` up to `upcoming` meets, in that span, an
    instant s past `after` at which the run it follows is idle too.

    `rejoin` is (idle, period, after): `idle` lists the followed run's idle
    intervals as [start, end, start, end, ...], sorted, or is None for no
    followed run; with a period W, they are those of one window [0, W],
    and the run is idle at s when s mod W falls in one of them.  The stop
    at an idle W is ([W, W], 0, W - 1): a followed run idle at W alone."""
    idle, period, after = rejoin
    q = max(t, after + 1)
    if idle is None:
        return q <= upcoming
    base = q - q % period if period else 0
    r = q - base
    i = bisect_left(idle, r)
    if i == len(idle):
        return False
    return base + (r if i & 1 else idle[i]) <= upcoming


def _check_scenario(graph: TaskGraph, scenario: ReleaseScenario) -> None:
    """Refuse, naming the chain, a scenario without one offset and one draw
    tuple per chain, a negative offset, or a draw outside [0, jitter] (below
    0 for a one-shot chain, whose draw delays its one release)."""
    chains = graph.chains
    for kind, values in (("offset", scenario.offsets), ("draw tuple", scenario.draws)):
        if len(values) < len(chains):
            raise ValueError(f"the scenario has no {kind} for chain {qual_str(chains[len(values)].root)}")
        if len(values) > len(chains):
            raise ValueError(f"the scenario has {len(values)} {kind}s for {len(chains)} chains")
    for chain, offset, draws in zip(chains, scenario.offsets, scenario.draws):
        name = qual_str(chain.root)
        if offset < 0:
            raise ValueError(f"chain {name} has offset {offset}, below 0")
        for draw in draws:
            if draw < 0:
                raise ValueError(f"chain {name} has jitter draw {draw}, below 0")
            if chain.event is not None and draw > chain.event.jitter:
                raise ValueError(f"chain {name} has jitter draw {draw}, above its jitter {chain.event.jitter}")


def simulate(
    graph: TaskGraph, cfg: Configuration, scenario: ReleaseScenario, trace: bool = False
) -> SimResult:
    _check_run(graph, scenario.horizon)
    _check_scenario(graph, scenario)
    plan = _Plan(graph, cfg, trace)
    lines: list[str] | None = [] if trace else None
    jobs = _run(plan, scenario.offsets, scenario.draws, scenario.horizon, plan.chains, None, lines)
    if lines is not None:  # every release line first, in release order
        roots = plan.roots
        lines[:0] = [f"t={job[_RELEASE]} release {roots[job[_CHAIN]]}#{job[_ACTIVATION]}" for job in jobs]
    jobs.sort(key=itemgetter(_CHAIN, _ACTIVATION))  # latencies in activation order
    values: list[list[int]] = [[] for _ in plan.keys]
    rows = plan.rows
    for job in jobs:
        done = job[_DONE]
        for slot, start, stop in rows[job[_CHAIN]]:
            values[slot].append(done[stop] - done[start])
    partial = any(job[_DONE][-1] > scenario.horizon for job in jobs)
    return SimResult(dict(zip(plan.keys, values)), partial, tuple(lines or ()))


def _hyperperiod(graph: TaskGraph) -> int:
    periods = [chain.event.period for chain in graph.chains if chain.event is not None]
    if not periods:
        return max((c.prefix[-1] for c in graph.chains), default=1)
    return math.lcm(*periods)


def default_horizon(graph: TaskGraph) -> int:
    return 2 * _hyperperiod(graph)


def _sweeps_at_zero(entry: tuple) -> bool:
    """Whether the chain of `entry`, one of `_Plan.chains`, is periodic with
    jitter below its period and runs every segment at one thread rank: then,
    alone in its group, it is swept exactly by offset 0.

    On every resource the heap orders such jobs by release, and release
    order is activation order, so a later job never delays an earlier one,
    and job k's completions depend only on jobs 0..k, which keep their
    relative release times at every offset.  Offset 0 releases the most
    jobs, ceil(horizon / period), so every job released at another offset
    runs at offset 0 with the same latencies.  A second rank breaks the
    argument: a later job's segment at a higher rank preempts an earlier
    job's."""
    _, event, segments, _ = entry
    rank = segments[0][1]
    return event is not None and event.jitter < event.period and all(segment[1] == rank for segment in segments)


def worst_observed(
    graph: TaskGraph, cfg: Configuration, horizon: int | None = None
) -> dict[SpanKey, int]:
    """Maximum latency per span over the offset grid and jitter patterns.

    The first chain anchors the grid at offset zero; every other periodic
    chain sweeps each offset in [0, period).  One-shot chains stay at zero.
    A sweep over more than MAX_GRID offset vectors, or whose runs release
    more than MAX_SWEEP_JOBS jobs in all, is refused before any run: both
    count the sweep below group by group, before rules 1, 2 and 4 cut it.

    Each of the plan's groups is swept on its own: over the grid restricted
    to its chains (the others run no jobs), by each pattern that draws
    differently for its chains, so a group without jitter runs once.  This
    is exact.  A group's completion times depend only on its own releases,
    so a span's latency at a full offset vector equals its latency at that
    vector's restriction to its group, and the maximum over the full grid
    is the maximum over the group's own grid.  A group of one periodic
    chain with jitter below its period and one thread rank on every segment
    runs at offset 0 only, which is exact too (`_sweeps_at_zero`).  The
    runs drop from the product of the groups' grids to their sum, and so
    do the caps' counts: the offset vectors of each group's grid, and per
    run the jobs its group's chains release before the horizon.  Each run
    raises the span maxima as its jobs complete their last segments.

    A zero-pattern run may stop at its group's hyperperiod W, the lcm of
    the group's periods, when every chain of the group is periodic and the
    horizon is a multiple of W above W; otherwise it runs to the horizon.
    It stops at the idle instant from which the group is idle up to W or
    past it, so after the completions at W and before the releases at W,
    having released only the jobs before W: its stop is the one instant W,
    ([W, W], 0, W - 1) in `_rejoins`' terms, and the idle intervals it
    records then end with the one holding W.  This is exact:
    - the engine is deterministic and keeps its schedule under a time
      shift: ties go by (rank, release, chain, activation), an order a
      shift keeps;
    - the releases in [kW, (k+1)W) are those of [0, W) shifted by kW, and
      no window is cut short, so a zero run idle at W repeats its first
      window in every later one, and is idle at each instant of its first
      window's idle intervals shifted by kW.

    Rule 1: at each offset vector the zero run records its idle intervals,
    and the max-first run at the same offsets stops at the first instant s
    at which it finds both runs idle and every drawn first release before
    s.  This is exact: both runs are empty at s, and from s on they
    release the same jobs, with the same chains, activations and keys, so
    the max-first run's tail is the zero run's tail, whose maxima are
    recorded: the zero run ran to the horizon, or stopped idle at W and
    repeats its first window.  It also stops where the zero run stopped
    at W if the max-first run is idle there, since W is then in the zero
    run's idle intervals.  A max-first run has no stop at W of its own:
    the zero run's tail cut short, where it is busy at W, need not be
    bounded by the full zero run on several resources, since removing a
    job can make another finish later.

    Rule 2: a group of one periodic chain whose jitter plus total wcet is
    at most its period runs no max-first pattern.  Under either pattern
    its first job runs alone and ends by the second release, so both runs
    are idle there with the same releases after it, and the first job's
    latencies are its work under both: rule 1, decided before running.

    Rule 4: a group is critical when every chain is periodic and none is
    forked, every segment is on one resource, each chain runs at one
    thread rank and every span starts at the release.  In a critical group
    of more than one offset vector, the zero run at the all-zero vector,
    which runs first, stands for every zero run, and each max-first run
    stops at its first idle instant after its last drawn release.  This
    holds at every horizon H: the synchronous release is the critical
    instant (Liu and Layland, JACM 1973), busy periods longer than a
    period included (Lehoczky, RTSS 1990).  Proof:
    - each chain is one preemptive fixed-priority task of its own rank,
      since distinct chains have distinct threads; a span [0, s) ends when
      its job has received the first P_s units of its work;
    - in the zero run at o, let job J of chain i, released at r, be the
      k-th job of i released since t0 <= r, the last instant at which no
      work of i or of a higher-ranked chain is pending: r - t0 >=
      (k - 1) T_i, and J's prefix completes at the least f > t0 with
      f - t0 = (k - 1) C_i + P_s + the sum of C_j n_j over higher-ranked
      chains j, n_j counting j's releases below H in [t0, f);
    - for every u, each chain releases at least as many jobs below H in
      [0, u) at the all-zero vector as in [t0, t0 + u) at o, so there
      chain i's job k, released at (k - 1) T_i < H, completes its prefix
      no earlier than f - t0: its latency is at least f - r;
    - at an idle instant s of the max-first run at o after every drawn
      release, the rest of the run is the zero run at o less the jobs
      released before s; on one resource with one rank per chain,
      removing jobs never delays a completion, so no span from the
      release grows there.
    The proof uses every condition: one resource for the busy period, one
    rank per chain so that a chain is one task, and spans from the release
    so that removing jobs never lengthens one; no fork keeps the rule
    clear of releasing a fork at its trigger's fork point.
    """
    if horizon is None:
        horizon = default_horizon(graph)
    _check_run(graph, horizon)
    plan = _Plan(graph, cfg)
    # per group: (its chains, its offset axes, W, its jittered chains, rule 4)
    sweeps: list[tuple[list, list[range], int, list[tuple[int, int]], bool]] = []
    grid = runs = total = most = 0  # offset vectors, runs, jobs in all, most jobs in one run
    for group in plan.groups:
        window = 1  # W, the lcm of the group's periods; 0 with a one-shot chain
        axes = [range(1)] * len(graph.chains)
        jittered = []  # (chain index, jitter); without any, the patterns draw alike
        jobs = 0  # released by the group's chains in one run
        for ci, event, _, _ in group:
            if event is None:
                window = 0
                jobs += 1
            else:
                jobs += -(-horizon // event.period)
                if window:
                    window = math.lcm(window, event.period)
                if event.jitter:
                    jittered.append((ci, event.jitter))
                if ci and not (len(group) == 1 and _sweeps_at_zero(group[0])):
                    axes[ci] = range(event.period)
        if window and (horizon % window or horizon == window):
            window = 0  # the rule needs whole windows, and one to skip
        points = math.prod(map(len, axes))
        group_runs = points * (1 + bool(jittered))  # patterns that draw alike run once
        grid += points
        runs += group_runs
        total += group_runs * jobs
        most = max(most, jobs)
        _, event, _, work = group[0]
        if len(group) == 1 and jittered and event.jitter + work <= event.period:
            jittered = []  # rule 2: job 0 ends alone before job 1 under both patterns
        sweeps.append((group, axes, window, jittered, points > 1 and _critical(graph, plan, group)))
    if grid > MAX_GRID:
        raise ValueError(f"the offset sweep has {grid} grid points, more than the cap of {MAX_GRID}")
    if total > MAX_SWEEP_JOBS:
        raise ValueError(
            f"the offset sweep runs {runs} schedules of up to {most} jobs, "
            f"{total} in all, more than the cap of {MAX_SWEEP_JOBS}"
        )
    max_first = _pattern_draws(graph, "max-first")
    zero = ((),) * len(graph.chains)  # the "zero" pattern's draws
    # each group's all-zero offset vector runs first and activates each of
    # its chains at offset 0, before the horizon, so every span is observed
    maxima = [-1] * len(plan.keys)
    for group, axes, window, jittered, critical in sweeps:
        at_window = ([window, window], 0, window - 1) if window else None  # the W stop: idle at W
        for offsets in itertools.product(*axes):
            idle = None if critical else []  # the zero run's idle intervals, for rule 1
            if idle is not None or not any(offsets):  # rule 4: the all-zero run stands for every zero run
                _run(plan, offsets, zero, horizon, group, maxima, None, idle, at_window)
            if jittered:
                after = max([offsets[ci] + jitter for ci, jitter in jittered])  # the last drawn release
                period = window if idle and idle[-2] <= window <= idle[-1] else 0  # W if it stopped there
                _run(plan, offsets, max_first, horizon, group, maxima, None, None, (idle, period, after))
    return dict(zip(plan.keys, maxima))


def _critical(graph: TaskGraph, plan: _Plan, group: list) -> bool:
    """Whether rule 4 holds for `group`: every chain periodic and unforked,
    every segment on one resource, each chain at one thread rank, every
    span starting at the release."""
    resource = group[0][2][0][0]
    for ci, event, segments, _ in group:
        if event is None or graph.chains[ci].triggered_by is not None:
            return False
        rank = segments[0][1]
        if any(r != resource or k != rank for r, k, _ in segments):
            return False
        if any(start for _, start, _ in plan.rows[ci]):
            return False
    return True
