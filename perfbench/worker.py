"""One repetition of a workload, in a fresh process started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --slice SECONDS
        [--traced --phase-order 0|1 --spans FILE] [--smoke]

Untraced, it builds the inputs, then runs whole passes over them (in an
order drawn from the seed) until the next pass would end after `--slice`
seconds, and prints one JSON line: every op's duration, raw and scaled to
reference speed (calibrate.py), the verdicts, the moment set-up ended and
the peak RSS.  Traced, it repeats pairs of phases, each phase being set-up
plus one pass, one untraced and one with every wrapper installed, and
prints the per-layer totals of each pair.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import nego.cli  # noqa: E402
import nego.constraints  # noqa: E402
import nego.dsl  # noqa: E402
import nego.negotiation  # noqa: E402
import nego.randsys  # noqa: E402
import nego.sim  # noqa: E402
import nego.space  # noqa: E402
import nego.taskgraph  # noqa: E402
import nego.timing  # noqa: E402

import calibrate  # noqa: E402
from metrics import PER_LAYER  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CORPUS_CANDIDATES, WORKLOADS, Outcome  # noqa: E402

# Speed is measured again before an op when this long has passed since the
# last measurement, or when the op before was longer than LONG_OP_S.
CALIBRATE_EVERY_S = 0.2
LONG_OP_S = 0.05
CONSTRAINT_KINDS = {nego.constraints.ForbidConjunction: "forbid",
                    nego.constraints.PriorityPrecedence: "precedence",
                    nego.constraints.PriorityNogood: "nogood"}


def run_op(inp, limit: float):
    start = time.perf_counter()
    try:
        outcome = inp.run()
    except (Exception, SystemExit) as exc:  # an op that raises or exits is a failed op
        outcome = Outcome(f"raised {type(exc).__name__}: {exc}")
    duration = time.perf_counter() - start
    failure = None
    if outcome.verdict != inp.expected:
        failure = f"{inp.name}: got {outcome.verdict!r}, expected {inp.expected!r} ({inp.reference})"
    elif duration > limit:
        failure = f"{inp.name}: took {duration:.3f} s, over the {limit} s limit"
    return outcome, duration, failure


def untraced(workload, seed: int, slice_s: float, smoke: bool) -> dict:
    inputs = workload.build(seed, smoke, ROOT)
    setup_end = time.perf_counter()
    loops = [calibrate.measure()]
    last_loop = start = time.perf_counter()
    ops, failures, passes, first = [], [], 0, {}
    while True:
        order = list(range(len(inputs)))
        random.Random(seed * 7919 + passes).shuffle(order)
        for i in order:
            if time.perf_counter() - last_loop > CALIBRATE_EVERY_S or (ops and ops[-1][1] > LONG_OP_S):
                loops.append(calibrate.measure())
                last_loop = time.perf_counter()
            outcome, duration, failure = run_op(inputs[i], workload.op_limit_s)
            ops.append((i, duration, len(loops) - 1, outcome.candidates))
            first.setdefault(i, [outcome.verdict, outcome.candidates])
            if failure:
                failures.append(failure)
        passes += 1
        elapsed = time.perf_counter() - start
        if smoke or elapsed * (passes + 1) / passes > slice_s:
            break
    loops.append(calibrate.measure())
    # each op at the mean of the speeds measured just before and just after it
    ops = [[i, calibrate.scale(raw, (loops[k] + loops[k + 1]) / 2), raw, candidates]
           for i, raw, k, candidates in ops]
    return {
        "setup_end": setup_end,
        "setup_loop_s": loops[0],
        "passes": passes,
        "inputs": [[inp.name, inp.expected] for inp in inputs],
        "verdicts": [first[i] for i in range(len(inputs))],
        "ops": ops,  # [input index, scaled seconds, raw seconds, candidates or None]
        "failures": failures,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# ---------------------------------------------------------------------------
# Traced phases


def install(tracer: Tracer, negotiations: list) -> None:
    """Wrap each layer at the attribute its caller looks up."""

    def on_negotiate(result) -> None:
        answer, trace = result
        kinds = [CONSTRAINT_KINDS[type(c)] for c in answer.constraints]
        exhausted = not answer.ok and answer.reason == "exhausted"
        negotiations.append((tracer.op, trace.candidates, exhausted, kinds))

    def on_synthesize(result) -> None:
        if result is None:
            tracer.counts["synthesize_none"] += 1

    w = tracer.wrap
    w(nego.cli, "main", "cli.main")
    w(nego.cli, "load_software_model", "dsl.load_software_model", "cli")
    w(nego.cli, "parse_contract", "dsl.parse_contract", "cli")
    w(nego.cli, "negotiate", "negotiation.negotiate", "cli", on_negotiate)
    w(nego.dsl, "load_software_model", "dsl.load_software_model", "bench")
    w(nego.dsl, "parse_contract", "dsl.parse_contract", "dsl")
    w(nego.randsys, "load_software_model", "dsl.load_software_model", "randsys")
    w(nego.negotiation, "negotiate", "negotiation.negotiate", "bench", on_negotiate)
    w(nego.negotiation, "apply_updates", "model.apply_updates")
    w(nego.negotiation, "check_well_formed", "model.check_well_formed")
    w(nego.negotiation, "check_control_flow", "controlflow.check_control_flow")
    w(nego.negotiation, "build_task_graph", "taskgraph.build_task_graph", "negotiation")
    w(nego.negotiation, "check_timing", "timing.check_timing")
    w(nego.space.ConstraintStore, "next_candidate", "space.next_candidate")
    w(nego.space, "build_task_graph", "taskgraph.build_task_graph", "space")
    w(nego.space, "synthesize_priorities", "timing.synthesize_priorities", "", on_synthesize)
    w(nego.taskgraph, "build_task_graph", "taskgraph.build_task_graph", "bench")
    w(nego.timing, "chain_latency_bound", "timing.chain_latency_bound")
    w(nego.sim, "simulate", "sim.simulate")
    w(nego.sim, "worst_observed", "sim.worst_observed")


def layer_metrics(tracer: Tracer, negotiations: list) -> dict[str, float]:
    summary = tracer.summary()
    out = {}
    for name, _, _ in PER_LAYER:
        key = name
        for caller in ("space", "negotiation"):
            key = key.replace(f"build_task_graph.{caller}.", f"build_task_graph@{caller}.")
        out[name] = summary.get(key, 0.0)
    candidates = sum(n[1] for n in negotiations)
    for kind in CONSTRAINT_KINDS.values():
        out[f"constraints.learned.{kind}"] = sum(n[3].count(kind) for n in negotiations)
    out["space.candidates_per_verdict"] = candidates / len(negotiations) if negotiations else 0.0
    builds = out["taskgraph.build_task_graph.space.calls"] + out["taskgraph.build_task_graph.negotiation.calls"]
    out["taskgraph.builds_per_candidate"] = builds / candidates if candidates else 0.0
    out["timing.synthesize_priorities.none"] = tracer.counts["synthesize_none"]
    out["trace.spans"] = len(tracer.spans)
    return out


def count_failures(out: dict, negotiations: list, plain: list, traced: list) -> list[str]:
    """Traced counts against the results the ops returned, and traced
    verdicts against untraced ones."""
    failures = []
    expected_calls = sum(n[1] + n[2] for n in negotiations)
    if out["space.next_candidate.calls"] != expected_calls:
        failures.append(f"next_candidate called {out['space.next_candidate.calls']:g} times, "
                        f"but candidates plus exhausted verdicts are {expected_calls}")
    for op, candidates, _, _ in negotiations:
        name = op.split(":", 1)[1]
        if CORPUS_CANDIDATES.get(name, candidates) != candidates:
            failures.append(f"{name}: {candidates} candidates, expected {CORPUS_CANDIDATES[name]}")
    for (name, a), (_, b) in zip(plain, traced):
        if a != b:
            failures.append(f"{name}: untraced gave {a}, traced gave {b}")
    return failures


def phase(workload, seed: int, smoke: bool, tracer: Tracer | None, negotiations: list, tag: str):
    """Set-up plus one pass; returns verdicts, failures, wall seconds and loop seconds."""
    before = calibrate.measure()
    start = time.perf_counter()
    if tracer is not None:
        install(tracer, negotiations)
    try:
        inputs = workload.build(seed, smoke, ROOT)
        results, failures = [], []
        for inp in inputs:
            if tracer is not None:
                tracer.op = f"{tag}:{inp.name}"
                inp = replace(inp, run=partial(tracer.call, "bench.op", "", inp.run))
            outcome, _, failure = run_op(inp, workload.op_limit_s)
            results.append((inp.name, [outcome.verdict, outcome.candidates]))
            if failure:
                failures.append(failure)
    finally:
        if tracer is not None:
            tracer.restore()
    wall = time.perf_counter() - start
    return results, failures, wall, (before + calibrate.measure()) / 2


def traced(workload, seed: int, slice_s: float, smoke: bool, order: int, spans: Path | None) -> dict:
    start = time.perf_counter()
    pairs, failures, mismatches, tracers = [], [], [], []
    while True:
        tracer, negotiations = Tracer(), []
        tag = str(len(pairs))
        runs = {}
        for is_traced in ((False, True) if (order + len(pairs)) % 2 == 0 else (True, False)):
            runs[is_traced] = phase(workload, seed, smoke, tracer if is_traced else None,
                                    negotiations, tag)
        (plain, plain_fail, plain_s, plain_loop), (seen, seen_fail, traced_s, traced_loop) = runs[False], runs[True]
        out = layer_metrics(tracer, negotiations)
        for name in out:
            if name.endswith("_ms"):
                out[name] = calibrate.scale(out[name], traced_loop)
        out["trace.untraced_ms"] = calibrate.scale(plain_s, plain_loop) * 1e3
        out["trace.overhead_ms"] = calibrate.scale(traced_s, traced_loop) * 1e3 - out["trace.untraced_ms"]
        failures += plain_fail + seen_fail
        mismatches += count_failures(out, negotiations, plain, seen)
        pairs.append({"metrics": out, "ops": 2 * len(plain), "verdicts": [v for _, v in seen]})
        tracers.append(tracer)
        elapsed = time.perf_counter() - start
        if smoke or elapsed * (len(pairs) + 1) / len(pairs) > slice_s:
            break
    if spans is not None:
        spans.parent.mkdir(parents=True, exist_ok=True)
        with spans.open("w") as out_file:
            for tracer in tracers:
                tracer.write(out_file)
    return {"pairs": pairs, "failures": failures, "mismatches": mismatches}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--slice", type=float, required=True, help="seconds of ops to aim for")
    parser.add_argument("--smoke", action="store_true", help="smallest inputs, one pass")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--phase-order", type=int, default=0, help="traced: 0 runs untraced first")
    parser.add_argument("--spans", type=Path, help="traced: file to write the spans to")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.traced:
        result = traced(workload, args.seed, args.slice, args.smoke, args.phase_order, args.spans)
    else:
        result = untraced(workload, args.seed, args.slice, args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
