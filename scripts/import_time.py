#!/usr/bin/env python3
"""Print what a fresh process pays to import nego, beside the interpreter's
own start-up.

Runs `--runs` rounds; each starts a fresh `python -X importtime -c "import
nego.cli"` and a fresh `python -c pass`, alternating which goes first.  It
prints the median and quartiles of nego's import self-time (the summed
self-time of every `nego` module, from `-X importtime`) and of each
process's wall time.  The `python -c pass` line is the baseline: start-up
that is not nego's, such as `site` and the `.pth` files it runs.  Bytecode
caching follows the environment: under PYTHONDONTWRITEBYTECODE every run
compiles nego's sources again.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(args: list[str], env: dict[str, str]) -> tuple[float, str]:
    """Wall seconds and standard error of one fresh process."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)
    return time.perf_counter() - start, done.stderr


def nego_self_us(importtime: str) -> int:
    """Summed self-time, in microseconds, of the `nego` modules in the
    output of `-X importtime`."""
    total = 0
    for line in importtime.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        if name.strip().split(".")[0] == "nego":
            total += int(self_us)
    return total


def _summary(label: str, values_ms: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values_ms, n=4, method="inclusive")
    return f"{label}: median {median:.1f} ms [quartiles {q1:.1f}, {q3:.1f}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=21, help="rounds of one process of each kind")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    self_ms, import_ms, pass_ms = [], [], []
    for round_ in range(args.runs):
        for kind in ("import", "pass") if round_ % 2 == 0 else ("pass", "import"):
            if kind == "pass":
                wall, _ = _run(["-c", "pass"], env)
                pass_ms.append(wall * 1e3)
            else:
                wall, err = _run(["-X", "importtime", "-c", "import nego.cli"], env)
                import_ms.append(wall * 1e3)
                self_ms.append(nego_self_us(err) / 1e3)
    print(f"{args.runs} interleaved rounds, {sys.executable} {sys.version.split()[0]}")
    print(_summary("nego import self-time", self_ms))
    print(_summary("import nego.cli wall", import_ms))
    print(_summary("python -c pass wall (baseline)", pass_ms))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
