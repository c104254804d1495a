#!/usr/bin/env python3
"""Check the sweep and the busy-window bound against every release.

For each `random_chain_system` seed below `--seeds` whose chains carry
some jitter, every task is mapped onto R1 and the priority order shuffled,
both from the seed.  The exhaustive walk of the test suite
(`exhaustive_worst_observed`) runs every offset and every jitter draw; a
system with more than 40,000 release scenarios at a horizon is skipped
there.  H is a system's default horizon and J_max its largest jitter.
Per span, at H, `sim.worst_observed` must see at most what the walk sees,
and a bounded span's walk must stay within the busy-window bound; at
H + J_max the walk must reach every bound exactly.  Spans the bound leaves
unbounded are checked at H only, for sweep <= walk, and counted at
H + J_max.  The check is `tests/systems.every_release_check`.  Prints the
counts and exits 1 on any mismatch.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from systems import every_release_check  # noqa: E402

CAP = 40_000


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, required=True)
    args = parser.parse_args()

    counts, mismatches = every_release_check(range(args.seeds), CAP)
    for line in mismatches:
        print(f"MISMATCH {line}")
    print(f"{args.seeds} seeds: " + ", ".join(f"{value} {name}" for name, value in counts.items()))
    print(f"{len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
