#!/usr/bin/env python3
"""Check that `sim.worst_observed` sees what a full walk of its grid sees.

For each of `--systems` seeds of `random_chain_system`, the task mapping is
drawn again over resources R1..RN for N = 1 to 4 and the priority order
shuffled, both from the seed; each system is swept at its default horizon
H, at 2H, at H - 1 and at H + J_max, J_max its largest jitter, and
compared with the unit-step grid walk of the test suite
(`reference_worst_observed`).  Then each `random_fork_system` seed below
`--systems` / 10 whose grid holds at most 100 offset vectors is swept at
H, 2H and H - 1 and compared with the engine's own full grid walk
(`engine_worst_observed`), since the engine releases a forked chain on its
own offset axis.  Last, 3 x `--systems` dense groups on one resource,
built by hand (`dense_group`), are swept at H, 2H, H - 1, H + 1, H + 2
and H + J_max and compared with `engine_worst_observed`: their chains run
tasks on a second thread and have spans from inner completions, which
`random_chain_system` never draws.  Prints the counts and exits 1 on any
mismatch.
"""

import argparse
import math
import random
import sys
from pathlib import Path

from nego.model import Configuration
from nego.randsys import random_chain_system
from nego.sim import default_horizon, worst_observed
from nego.taskgraph import NORMAL, Chain, EventModel, LatencyReq, TaskGraph, build_task_graph

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import engine_worst_observed, reference_worst_observed  # noqa: E402
from systems import random_fork_system  # noqa: E402

FORK_GRID = 100  # the most offset vectors a fork system's walk may take
DENSE_WALK = 1_000  # the most jobs a dense group's walk at 2H may release


def dense_group(rng: random.Random) -> tuple[TaskGraph, Configuration]:
    """A group of 2 to 4 chains on R1: periods 2 to 10, jitter up to the
    period on about half of them, and 1 to 3 tasks of wcet 1 to a third of
    the period, each on the chain's thread t or its second thread u.
    Each chain has one span, from the release or from an inner completion,
    and every thread gets a rank at random, so utilization falls on both
    sides of 1.  Groups whose full walk at twice the default horizon
    releases more than DENSE_WALK jobs are drawn again."""
    while True:
        chains, mapping, threads = [], {}, []
        for c in range(rng.randint(2, 4)):
            name = f"C{c}"
            period = rng.randint(2, 10)
            jitter = rng.randint(1, period) if rng.random() < 0.5 else 0
            tasks = []  # (task id, thread, wcet, bcet), the wcet drawn before the thread
            for i in range(rng.randint(1, 3)):
                wcet = rng.randint(1, max(1, period // 3))
                tasks.append(((name, f"n{i}"), (name, rng.choice("tu") if i else "t"), wcet, 1))
            start = rng.randrange(len(tasks))
            span = (start, rng.randint(start + 1, len(tasks)))
            chains.append(Chain.of((name, "t"), NORMAL, tasks, EventModel(period, jitter), (LatencyReq(1000, span, name, "t"),)))
            mapping.update({task: "R1" for task, _, _, _ in tasks})
            threads += sorted({thread for _, thread, _, _ in tasks})
        graph = TaskGraph(NORMAL, tuple(chains))
        horizon = 2 * default_horizon(graph)
        grid = math.prod(chain.event.period for chain in chains[1:])
        if 2 * grid * sum(-(-horizon // chain.event.period) for chain in chains) <= DENSE_WALK:
            rng.shuffle(threads)
            names = frozenset(name for name, _ in threads)
            return graph, Configuration(names, frozenset(), mapping, tuple(threads))


def _horizons(graph, *more):
    """The default horizon H, 2H and H - 1, then H plus each of `more`,
    each horizon once."""
    full = default_horizon(graph)
    return tuple(dict.fromkeys((full, 2 * full, full - 1, *[full + extra for extra in more])))


def _jitter(graph) -> int:
    """J_max, the largest jitter of the graph's chains."""
    return max((chain.event.jitter for chain in graph.chains if chain.event is not None), default=0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--systems", type=int, default=100)
    args = parser.parse_args()

    sweeps = mismatches = 0
    for seed in range(args.systems):
        system = random_chain_system(random.Random(seed))
        graph = build_task_graph(system.software, system.config, NORMAL)
        rng = random.Random(seed)
        for resources in range(1, 5):
            names = [f"R{i + 1}" for i in range(resources)]
            mapping = {task: rng.choice(names) for task in sorted(system.config.mapping)}
            order = list(system.config.priorities)
            rng.shuffle(order)
            cfg = Configuration(system.config.selected, system.config.connections, mapping, tuple(order))
            for horizon in _horizons(graph, _jitter(graph)):
                sweeps += 1
                if worst_observed(graph, cfg, horizon) != reference_worst_observed(graph, cfg, horizon):
                    mismatches += 1
                    print(f"MISMATCH chain seed={seed} resources={resources} horizon={horizon}")
    forks = fork_sweeps = 0
    for seed in range(args.systems // 10):
        system = random_fork_system(random.Random(seed))
        graph = build_task_graph(system.software, system.config, NORMAL)
        if math.prod(chain.event.period for chain in graph.chains[1:]) > FORK_GRID:
            continue
        forks += 1
        for horizon in _horizons(graph):
            fork_sweeps += 1
            if worst_observed(graph, system.config, horizon) != engine_worst_observed(graph, system.config, horizon):
                mismatches += 1
                print(f"MISMATCH fork seed={seed} horizon={horizon}")
    dense = overloaded = 0
    rng = random.Random(0)
    for index in range(3 * args.systems):
        graph, cfg = dense_group(rng)
        overloaded += sum(sum(chain.wcets) / chain.event.period for chain in graph.chains) > 1
        for horizon in _horizons(graph, 1, 2, _jitter(graph)):
            dense += 1
            if worst_observed(graph, cfg, horizon) != engine_worst_observed(graph, cfg, horizon):
                mismatches += 1
                print(f"MISMATCH dense group={index} horizon={horizon}")
    print(
        f"{args.systems} chain systems, {sweeps} sweeps; {forks} fork systems, {fork_sweeps} sweeps; "
        f"{3 * args.systems} dense groups, {overloaded} overloaded, {dense} sweeps; {mismatches} mismatches"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
