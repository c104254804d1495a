"""Benchmark of nego: time to verdict, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Each repetition runs in a fresh process
(worker.py) under its own PYTHONHASHSEED from HASH_SEEDS, sequentially,
with `--seconds` shared out between them.  With `--trace 0` the last line of
standard output is a JSON object with the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of the traced run, and the
spans are written under `.bench_build/perfbench/`.  Every verdict is
checked against its reference; a wrong verdict, an exception, exit code 2
or an op over its time limit is a failed op, and any failed op makes the
exit code 1.  `--smoke` runs every workload at its smallest size, traced
and untraced, and checks the emitted names, units, verdicts and counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from metrics import END_TO_END, PER_LAYER, REPORT_ONLY

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "search", "scale", "soundness")
# PYTHONHASHSEED of each repetition.  Set iteration order (cfg.selected in
# controlflow.thread_modes) follows the hash seed, and with it the cost of
# deep chains, so every run walks the same fixed list.
HASH_SEEDS = (11, 23, 37, 53)
RUN_LIMIT_S = 170.0  # whole run, all repetitions included


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, slice_s: float, hash_seed: int, deadline: float,
          extra: list[str]) -> tuple[dict, float]:
    """Run one repetition; return its JSON result and the moment it was started."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--slice", repr(slice_s), *extra]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition (hash seed {hash_seed}) overran the run limit") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} repetition (hash seed {hash_seed}) exited with {proc.returncode}")
    return json.loads(lines[-1]), started


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(reps: list[tuple[dict, float]]) -> tuple[dict[str, float], list[str]]:
    """Metrics of an untraced run, and report lines."""
    inputs = reps[0][0]["inputs"]
    ops = [op for result, _ in reps for op in result["ops"]]
    durations = [op[1] for op in ops]
    by_input: dict[int, list[float]] = {}
    for i, duration, _, _ in ops:
        by_input.setdefault(i, []).append(duration)
    admit = [d for i, d, _, _ in ops if inputs[i][1] == "Yes"]
    reject = [d for i, d, _, _ in ops if inputs[i][1].startswith("No")]
    searched = [(d, c) for _, d, _, c in ops if c is not None]
    failed = sum(len(result["failures"]) for result, _ in reps)
    medians = {i: statistics.median(v) for i, v in by_input.items()}
    metrics = {
        "setup_s": statistics.median(calibrate.scale(result["setup_end"] - started, result["setup_loop_s"])
                                     for result, started in reps),
        "verdict_p50_ms": statistics.median(durations) * 1e3,
        "verdict_p90_ms": quantile(durations, 90) * 1e3,
        "verdict_gmean_ms": math.exp(statistics.fmean(math.log(m) for m in medians.values())) * 1e3,
        "verdicts_per_s": len(ops) / sum(durations),
        "peak_rss_mb": statistics.median(result["rss_mb"] for result, _ in reps),
    }
    extra = {
        "admit_p50_ms": statistics.median(admit) * 1e3 if admit else None,
        "reject_p50_ms": statistics.median(reject) * 1e3 if reject else None,
        "candidates_per_s": (sum(c for _, c in searched) / sum(d for d, _ in searched)
                             if searched else None),
        "failed_frac": failed / len(ops),
    }
    raw = [op[2] for op in ops]
    p90 = metrics["verdict_p90_ms"] / 1e3
    beyond = sum(1 for d in durations if d > p90)
    lines = [f"{len(ops)} ops in {len(reps)} repetitions, {beyond} of them beyond p90, "
             f"{sum(r['passes'] for r, _ in reps)} passes over {len(inputs)} inputs; "
             "times at reference speed (calibrate.py)"]
    for name, unit, _ in END_TO_END:
        lines.append(f"  {name} = {metrics[name]:.6g} {unit}")
    for name, unit in REPORT_ONLY:
        value = extra[name]
        lines.append(f"  {name} = {'n/a' if value is None else f'{value:.6g}'} {unit}")
    lines.append(f"  unscaled: verdict_p50_ms = {statistics.median(raw) * 1e3:.6g}, "
                 f"verdict_p90_ms = {quantile(raw, 90) * 1e3:.6g}")
    lines.append("  per-input median ms:")
    for i, (name, expected) in enumerate(inputs):
        lines.append(f"    {name:32s} {medians[i] * 1e3:10.3f}  ({expected})")
    return metrics, lines


def per_layer(reps: list[tuple[dict, float]]) -> tuple[dict[str, float], list[str], list[str]]:
    """Per-layer medians over every traced pair, report lines, and counts
    that did not repeat."""
    pairs = [pair for result, _ in reps for pair in result["pairs"]]
    metrics, unrepeated = {}, []
    for name, unit, _ in PER_LAYER:
        values = [pair["metrics"][name] for pair in pairs]
        metrics[name] = statistics.median(values)
        if unit == "count" and len(set(values)) > 1:
            unrepeated.append(f"{name} differs between repetitions: {sorted(set(values))}")
    lines = [f"{len(pairs)} traced pairs in {len(reps)} repetitions; totals per set-up plus one pass"]
    op_ms = metrics["bench.op.total_ms"]
    for name, unit, _ in PER_LAYER:
        shared = unit == "ms" and op_ms and not name.startswith("trace.")
        share = f"  ({metrics[name] / op_ms:.1%} of op time)" if shared else ""
        lines.append(f"  {name} = {metrics[name]:.6g} {unit}{share}")
    return metrics, lines, unrepeated


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        hash_seeds: tuple[int, ...] = HASH_SEEDS) -> tuple[dict, list]:
    """Print the report; return the result line's object and, per
    repetition, the verdicts and candidate counts by input."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    slice_s = seconds / len(hash_seeds)
    reps = []
    for index, hash_seed in enumerate(hash_seeds):
        extra = ["--smoke"] if smoke else []
        if trace:
            spans = ROOT / ".bench_build" / "perfbench" / f"spans-{workload}-seed{seed}-hash{hash_seed}.jsonl"
            extra += ["--traced", "--phase-order", str(index % 2), "--spans", str(spans)]
        reps.append(spawn(workload, seed, slice_s, hash_seed, deadline, extra))
    failures = [f for result, _ in reps for f in result["failures"]]  # failed ops
    if trace:
        metrics, lines, mismatches = per_layer(reps)
        mismatches += [m for result, _ in reps for m in result["mismatches"]]
        attempted = sum(pair["ops"] for result, _ in reps for pair in result["pairs"])
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics, lines = end_to_end(reps)
        mismatches = []
        attempted = sum(len(result["ops"]) for result, _ in reps)
        units = {name: unit for name, unit, _ in END_TO_END}
    print(f"workload {workload}, seed {seed}, {'traced' if trace else 'untraced'}")
    for line in lines + [f"FAILED {f}" for f in failures] + [f"MISMATCH {m}" for m in mismatches]:
        print(line)
    result = {
        "correct": not failures and not mismatches,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    verdicts = [r["pairs"][0]["verdicts"] if trace else r["verdicts"] for r, _ in reps]
    return result, verdicts


def smoke() -> int:
    """Every workload at its smallest size, untraced and traced, checked
    against the metric lists declared in BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        verdicts = {}
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, verdicts[trace] = run(workload, 1, 1.0, trace, smoke=True, hash_seeds=HASH_SEEDS[:1])
            want = {m["name"]: m["unit"] for m in declared[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload}: {section} emitted {got}, declared {want}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload}: {result['failed']} failed ops")
        if verdicts[True] != verdicts[False]:
            problems.append(f"{workload}: traced verdicts {verdicts[True]} != untraced {verdicts[False]}")
    for problem in problems:
        print(f"SMOKE {problem}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "nego" / "__init__.py").is_file():
        print(f"error: no nego sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
