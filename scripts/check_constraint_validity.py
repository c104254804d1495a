#!/usr/bin/env python3
"""Check that every constraint negotiation learns on random systems is valid.

A learned constraint is valid when every complete configuration it excludes
fails an analysis (control flow, task-graph structure, or timing in either
mode) under the same model.  For each seed of `random_software_system` and
each model, negotiate, then re-run the analyses on every configuration a
learned constraint excludes, with the brute-force oracle of the test suite.
Exits 1 if any excluded configuration passes them all.
"""

import argparse
import random
import sys
from pathlib import Path

from nego.negotiation import negotiate
from nego.randsys import random_software_system
from nego.timing import MODELS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import invalid_constraints  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=300)
    args = parser.parse_args()

    learned = invalid = 0
    for seed in range(args.seeds):
        system = random_software_system(random.Random(seed))
        for model in MODELS:
            answer, _ = negotiate(system, [], model=model)
            learned += len(answer.constraints)
            for constraint, cfg in invalid_constraints(system, model, answer.constraints):
                invalid += 1
                print(f"INVALID seed={seed} {model}: {constraint} excludes passing {cfg}")
    print(f"{args.seeds} systems, {learned} learned constraints, {invalid} invalid exclusions")
    return 1 if invalid else 0


if __name__ == "__main__":
    raise SystemExit(main())
