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
from bisect import bisect_right
from dataclasses import dataclass, field

from nego.model import Configuration, QualId, qual_str
from nego.taskgraph import Chain, TaskGraph

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
    """Per-chain jitter draws of one pattern, indexed like `graph.chains`."""
    if pattern not in JITTER_PATTERNS:
        raise ValueError(f"unknown jitter pattern {pattern!r}")
    draws = []
    for chain in graph.chains:
        if pattern == "max-first" and chain.event is not None:
            draws.append((chain.event.jitter,))
        else:
            draws.append(())
    return tuple(draws)


def synchronous_scenario(graph: TaskGraph, horizon: int, pattern: str = "max-first") -> ReleaseScenario:
    """All chains released together at zero, jitter drawn by `pattern`."""
    return ReleaseScenario(tuple(0 for _ in graph.chains), _pattern_draws(graph, pattern), horizon)


def random_scenario(graph: TaskGraph, rng, horizon: int) -> ReleaseScenario:
    offsets = []
    draws = []
    for chain in graph.chains:
        if chain.event is None:
            offsets.append(0)
            draws.append(())
            continue
        offsets.append(rng.randrange(chain.event.period))
        count = math.ceil(horizon / chain.event.period) + 1
        draws.append(tuple(rng.randint(0, chain.event.jitter) for _ in range(count)))
    return ReleaseScenario(tuple(offsets), tuple(draws), horizon)


@dataclass
class _Job:
    chain_idx: int
    activation: int
    release: int
    node_idx: int = 0
    remaining: int = 0
    completions: list[int] = field(default_factory=list)
    done: bool = False


@dataclass
class SimResult:
    latencies: dict[SpanKey, list[int]]
    partial: bool
    trace: tuple[str, ...] = ()

    def maxima(self) -> dict[SpanKey, int]:
        return {key: max(values) for key, values in self.latencies.items() if values}


def _chain_spans(chain: Chain) -> list[tuple[int, int]]:
    spans = {(0, len(chain.nodes))}
    spans.update(req.span for req in chain.requirements)
    return sorted(spans)


def simulate(
    graph: TaskGraph, cfg: Configuration, scenario: ReleaseScenario, trace: bool = False
) -> SimResult:
    ranks = cfg.ranks()
    chains = graph.chains
    jobs: list[_Job] = []
    for ci, chain in enumerate(chains):
        if not chain.nodes:
            continue
        offset = scenario.offsets[ci]
        draws = scenario.draws[ci]
        if chain.event is None:
            releases = [offset + (draws[0] if draws else 0)]
        else:
            releases = []
            k = 0
            while offset + k * chain.event.period < scenario.horizon:
                draw = draws[k] if k < len(draws) else 0
                if not 0 <= draw <= chain.event.jitter:
                    raise ValueError(f"jitter draw {draw} outside [0, {chain.event.jitter}]")
                releases.append(offset + k * chain.event.period + draw)
                k += 1
        for k, release in enumerate(releases):
            job = _Job(ci, k, release)
            job.remaining = chain.nodes[0].wcet
            jobs.append(job)

    lines: list[str] = []
    if trace:
        for job in sorted(jobs, key=lambda j: (j.release, j.chain_idx, j.activation)):
            root = chains[job.chain_idx].root
            lines.append(f"t={job.release} release {qual_str(root)}#{job.activation}")

    release_times = sorted({job.release for job in jobs})
    running: dict[str, tuple[int, int, int]] = {}  # resource -> (job id, node, release)
    t = min(release_times) if release_times else 0

    def node_of(job: _Job):
        return chains[job.chain_idx].nodes[job.node_idx]

    while any(not job.done for job in jobs):
        chosen: dict[str, _Job] = {}
        keys: dict[str, tuple] = {}
        for job in jobs:
            if job.done or job.release > t:
                continue
            node = node_of(job)
            resource = cfg.mapping[node.task_id]
            key = (ranks[node.thread], job.release, job.chain_idx, job.activation)
            if resource not in keys or key < keys[resource]:
                keys[resource] = key
                chosen[resource] = job

        if trace:
            for resource in sorted(chosen):
                job = chosen[resource]
                tag = (id(job), job.node_idx, job.release)
                prev = running.get(resource)
                if prev != tag:
                    if prev is not None and prev[0] != id(job):
                        for other in jobs:
                            if id(other) == prev[0] and not other.done and other.node_idx == prev[1]:
                                node = node_of(other)
                                lines.append(f"t={t} preempt {qual_str(node.task_id)}#{other.activation}")
                    node = node_of(job)
                    lines.append(f"t={t} dispatch {qual_str(node.task_id)}#{job.activation}")
                    running[resource] = tag

        idx = bisect_right(release_times, t)
        next_release = release_times[idx] if idx < len(release_times) else None
        horizon_next = min((t + job.remaining for job in chosen.values()), default=None)
        if horizon_next is None:
            if next_release is None:
                break
            t = next_release
            continue
        nxt = horizon_next if next_release is None else min(horizon_next, next_release)

        delta = nxt - t
        for resource, job in chosen.items():
            job.remaining -= delta
            if job.remaining == 0:
                job.completions.append(nxt)
                if trace:
                    node = node_of(job)
                    lines.append(f"t={nxt} complete {qual_str(node.task_id)}#{job.activation}")
                    running.pop(resource, None)
                job.node_idx += 1
                if job.node_idx >= len(chains[job.chain_idx].nodes):
                    job.done = True
                else:
                    job.remaining = node_of(job).wcet
        t = nxt

    latencies: dict[SpanKey, list[int]] = {}
    partial = False
    for ci, chain in enumerate(chains):
        if not chain.nodes:
            continue
        for span in _chain_spans(chain):
            latencies.setdefault((chain.root, span), [])
    for job in jobs:
        chain = chains[job.chain_idx]
        if not job.done:
            partial = True
            continue
        if job.completions[-1] > scenario.horizon:
            partial = True
        for span in _chain_spans(chain):
            start, stop = span
            ready = job.release if start == 0 else job.completions[start - 1]
            latencies[(chain.root, span)].append(job.completions[stop - 1] - ready)
    return SimResult(latencies, partial, tuple(lines))


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
    """
    if horizon is None:
        horizon = default_horizon(graph)
    axes: list[range] = []
    for ci, chain in enumerate(graph.chains):
        if ci == 0 or chain.event is None:
            axes.append(range(1))
        else:
            axes.append(range(chain.event.period))
    draws = [_pattern_draws(graph, pattern) for pattern in JITTER_PATTERNS]
    maxima: dict[SpanKey, int] = {}
    for offsets in itertools.product(*axes):
        for pattern_draws in draws:
            result = simulate(graph, cfg, ReleaseScenario(offsets, pattern_draws, horizon))
            for key, value in result.maxima().items():
                if key not in maxima or value > maxima[key]:
                    maxima[key] = value
    return maxima
