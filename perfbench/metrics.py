"""Names, units and directions of every metric the benchmark reports.

`BENCHMARK.json` declares the same lists; the smoke mode checks that the two
agree and that every run emits each name with its unit.
"""

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),  # process start to first timed op (median over repetitions)
    ("verdict_p50_ms", "ms", "lower"),
    ("verdict_p90_ms", "ms", "lower"),
    ("verdict_gmean_ms", "ms", "lower"),  # geometric mean over inputs of each input's median
    ("verdicts_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),  # ru_maxrss of a repetition's process (median)
]

# Printed with the end-to-end report but not gated: they do not exist on
# every workload (no candidates on soundness), or are 0 when all is well.
REPORT_ONLY = [
    ("admit_p50_ms", "ms"),
    ("reject_p50_ms", "ms"),
    ("candidates_per_s", "1/s"),
    ("failed_frac", "ratio"),
]

# Totals over one traced phase (set-up plus one pass over every input),
# median over phases.  Counts repeat exactly from phase to phase.
PER_LAYER = [
    ("bench.op.total_ms", "ms", "lower"),  # every op of the pass, set-up excluded
    ("bench.op.self_ms", "ms", "lower"),  # op time outside the wrapped functions
    ("space.next_candidate.calls", "count", "lower"),
    ("space.next_candidate.total_ms", "ms", "lower"),
    ("space.next_candidate.self_ms", "ms", "lower"),
    ("space.candidates_per_verdict", "ratio", "lower"),
    ("constraints.learned.forbid", "count", "lower"),
    ("constraints.learned.precedence", "count", "lower"),
    ("constraints.learned.nogood", "count", "lower"),
    ("taskgraph.build_task_graph.calls", "count", "lower"),
    ("taskgraph.build_task_graph.total_ms", "ms", "lower"),
    ("taskgraph.build_task_graph.space.calls", "count", "lower"),
    ("taskgraph.build_task_graph.space.total_ms", "ms", "lower"),
    ("taskgraph.build_task_graph.negotiation.calls", "count", "lower"),
    ("taskgraph.build_task_graph.negotiation.total_ms", "ms", "lower"),
    ("taskgraph.builds_per_candidate", "ratio", "lower"),
    ("controlflow.check_control_flow.calls", "count", "lower"),
    ("controlflow.check_control_flow.total_ms", "ms", "lower"),
    ("timing.check_timing.calls", "count", "lower"),
    ("timing.check_timing.total_ms", "ms", "lower"),
    ("timing.synthesize_priorities.calls", "count", "lower"),
    ("timing.synthesize_priorities.total_ms", "ms", "lower"),
    ("timing.synthesize_priorities.none", "count", "lower"),
    ("timing.chain_latency_bound.calls", "count", "lower"),
    ("timing.chain_latency_bound.total_ms", "ms", "lower"),
    ("sim.simulate.calls", "count", "lower"),
    ("sim.simulate.total_ms", "ms", "lower"),
    ("sim.worst_observed.total_ms", "ms", "lower"),
    ("dsl.load_software_model.total_ms", "ms", "lower"),
    ("dsl.parse_contract.total_ms", "ms", "lower"),
    ("cli.main.total_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("model.check_well_formed.total_ms", "ms", "lower"),
    ("model.apply_updates.total_ms", "ms", "lower"),
    ("negotiation.negotiate.calls", "count", "lower"),
    ("negotiation.negotiate.total_ms", "ms", "lower"),
    ("negotiation.negotiate.self_ms", "ms", "lower"),
    ("trace.untraced_ms", "ms", "lower"),  # wall time of the same phase untraced
    ("trace.overhead_ms", "ms", "lower"),  # traced minus untraced wall time
    ("trace.spans", "count", "lower"),
]
