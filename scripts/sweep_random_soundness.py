#!/usr/bin/env python3
"""Check the busy-window bound against simulated worst cases on random systems.

Also prints one SHA-256 over every system's sorted (seed, root, span,
observed) rows.  With `--expect HEX`, exit 1 unless the digest equals HEX:
a change that keeps the simulator's output byte-identical keeps the digest.
With `--resources N`, each system's task mapping is drawn again over
resources R1..RN and its priority order shuffled, both from the system's
seed, so more of the systems spread over several resources.
"""

import argparse
import hashlib
import random
import sys

from nego.model import Configuration, qual_str
from nego.randsys import random_chain_system
from nego.sim import worst_observed
from nego.taskgraph import NORMAL, build_task_graph
from nego.timing import BUSY_WINDOW, SINGLE_BLOCKING, chain_latency_bound


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--systems", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--expect", help="the digest the run must give")
    parser.add_argument("--resources", type=int, help="redraw each mapping over this many resources")
    args = parser.parse_args()
    if args.resources is not None and args.resources < 1:
        parser.error("--resources must be at least 1")

    spans = violations = 0
    digest = hashlib.sha256()
    for index in range(args.systems):
        seed = args.seed + index
        system = random_chain_system(random.Random(seed))
        cfg = system.config
        if args.resources is not None:
            rng = random.Random(seed)
            resources = [f"R{i + 1}" for i in range(args.resources)]
            mapping = {task: rng.choice(resources) for task in sorted(cfg.mapping)}
            order = list(cfg.priorities)
            rng.shuffle(order)
            cfg = Configuration(cfg.selected, cfg.connections, mapping, tuple(order))
        graph = build_task_graph(system.software, cfg, NORMAL)
        ranks = cfg.ranks()
        for (root, span), seen in sorted(worst_observed(graph, cfg).items()):
            digest.update(f"{seed} {qual_str(root)} {span[0]}:{span[1]} {seen}\n".encode())
            chain = graph.chain(root)
            busy = chain_latency_bound(chain, span, graph, cfg, ranks, BUSY_WINDOW)
            single = chain_latency_bound(chain, span, graph, cfg, ranks, SINGLE_BLOCKING)
            spans += 1
            if busy is not None and seen > busy:
                violations += 1
                print(f"UNSOUND seed={seed} {root} {span}: observed {seen} > bound {busy}")
            if busy is not None and single is not None and busy < single:
                violations += 1
                print(f"ORDER seed={seed} {root} {span}: busy {busy} < single {single}")
    print(f"{args.systems} systems, {spans} spans, {violations} violations: {digest.hexdigest()}")
    if args.expect is not None and digest.hexdigest() != args.expect:
        print(f"expected {args.expect}", file=sys.stderr)
        return 1
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
