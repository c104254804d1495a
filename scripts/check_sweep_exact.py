#!/usr/bin/env python3
"""Check that `sim.worst_observed` sees what a full walk of its grid sees.

For each of `--systems` seeds of `random_chain_system`, the task mapping is
drawn again over resources R1..RN for N = 1 to 4 and the priority order
shuffled, both from the seed; each system is swept at its default horizon
H, at 2H and at H - 1 and compared with the unit-step grid walk of the test
suite (`reference_worst_observed`).  Then each `random_fork_system` seed
below `--systems` / 10 whose grid holds at most 100 offset vectors is
swept at H, 2H and H - 1 and compared with the engine's own full grid walk
(`engine_worst_observed`), since the engine releases a forked chain on its
own offset axis.  Prints the counts and exits 1 on any mismatch.
"""

import argparse
import math
import random
import sys
from pathlib import Path

from nego.model import Configuration
from nego.randsys import random_chain_system
from nego.sim import default_horizon, worst_observed
from nego.taskgraph import NORMAL, build_task_graph

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import engine_worst_observed, reference_worst_observed  # noqa: E402
from systems import random_fork_system  # noqa: E402

FORK_GRID = 100  # the most offset vectors a fork system's walk may take


def _horizons(graph):
    full = default_horizon(graph)
    return (full, 2 * full, full - 1)


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
            for horizon in _horizons(graph):
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
    print(
        f"{args.systems} chain systems, {sweeps} sweeps; {forks} fork systems, {fork_sweeps} sweeps; "
        f"{mismatches} mismatches"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
