#!/usr/bin/env python3
"""Print one SHA-256 over negotiation output on random systems.

For each seed of `random_software_system` and each model, negotiate and
hash the trace text, the answer line, the learned constraints in order and,
on a Yes, the report and the configuration.  With `--expect HEX`, exit 1
unless the digest equals HEX: a change that keeps negotiation
byte-identical keeps the digest.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from systems import negotiation_digest, random_systems  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=2000)
    parser.add_argument("--expect", help="the digest the run must give")
    args = parser.parse_args()

    digest = negotiation_digest(random_systems(args.seeds))
    print(f"{args.seeds} systems: {digest}")
    if args.expect is not None and digest != args.expect:
        print(f"expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
