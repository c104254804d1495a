"""The negotiation loop: propose a candidate, analyse, learn, repeat.

An update request batch is applied to the software model, the current
configuration is re-validated as-is (unchanged answers are preferred), and
only then does the search start.  Analyses run cheapest first; each
rejection feeds constraints back into the store, so no failing region is
visited twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from nego.constraints import ConnLit, ForbidConjunction, sort_constraints
from nego.controlflow import check_control_flow
from nego.model import (
    Accepted,
    Answer,
    Configuration,
    ModelError,
    PlatformModel,
    QualId,
    Rejected,
    SystemModel,
    UpdateRequest,
    apply_updates,
    check_well_formed,
    pinned_components,
    qual_str,
)
from nego.space import ConstraintStore
# build_task_graph stays importable from here: perfbench's traced run wraps
# it by this name, although the builds go through ConstraintStore.task_graphs.
from nego.taskgraph import GraphError, build_task_graph  # noqa: F401
from nego.timing import BUSY_WINDOW, MODELS, TimingReport, check_timing

DEFAULT_BUDGET = 10000


@dataclass(frozen=True)
class NegotiationTrace:
    lines: tuple[str, ...]
    candidates: int

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _report_lines(normal: TimingReport, init: TimingReport) -> tuple[str, ...]:
    return tuple(normal.lines() + [v.line() for v in init.verdicts])


def _revalidate(
    software, store: ConstraintStore, platform: PlatformModel, cfg: Configuration, pinned: frozenset[str], model: str
) -> tuple[tuple[str, ...] | None, str]:
    """Re-run every viewpoint on the unchanged configuration.

    Returns (report, "") on success or (None, reason) on the first failure.
    """
    try:
        violations = check_well_formed(cfg, software, platform)
    except ModelError as exc:
        return None, f"stale configuration: {exc}"
    if violations:
        return None, f"not well-formed: {violations[0]}"
    missing = sorted(pinned - cfg.selected)
    if missing:
        return None, f"pinned component {missing[0]} not selected"
    cf = check_control_flow(software, cfg)
    if cf:
        return None, cf[0].message()
    try:
        normal, init = store.task_graphs(cfg)
    except GraphError as exc:
        return None, f"structure: {exc}"
    normal_report = check_timing(normal, cfg, platform, model)
    init_report = check_timing(init, cfg, platform, model)
    if not normal_report.ok or not init_report.ok:
        failed = [v for r in (normal_report, init_report) for v in r.verdicts if not v.passed]
        reason = failed[0].line() if failed else "utilization overload"
        return None, reason
    return _report_lines(normal_report, init_report), ""


def _describe(candidate: Configuration, out: list[str]) -> None:
    out.append("  selected: " + " ".join(sorted(candidate.selected)))
    for client, service, provider in sorted(candidate.connections):
        out.append(f"  connection: {client} {service} {provider}")
    for task in sorted(candidate.mapping):
        out.append(f"  mapping: {qual_str(task)} {candidate.mapping[task]}")
    out.append("  priorities: " + " > ".join(qual_str(t) for t in candidate.priorities))


def negotiate(
    system: SystemModel,
    requests: Sequence[UpdateRequest],
    model: str = BUSY_WINDOW,
    budget: int = DEFAULT_BUDGET,
) -> tuple[Answer, NegotiationTrace]:
    if model not in MODELS:
        raise ValueError(f"unknown interference model {model!r}")
    trace: list[str] = []
    for request in requests:
        trace.append(f"request: {request.change} {request.contract.component}")
    software = apply_updates(system.software, requests)
    pinned = pinned_components(software)
    platform = system.platform
    current = system.config
    store = ConstraintStore(software, platform, pinned)

    if current is not None:
        report, reason = _revalidate(software, store, platform, current, pinned, model)
        if report is not None:
            trace.append("revalidation: ok")
            return (
                Accepted(current, report, previous=current),
                NegotiationTrace(tuple(trace), 0),
            )
        trace.append(f"revalidation: {reason}")

    count = 0
    while count < budget:
        candidate = store.next_candidate()
        if candidate is None:
            trace.append(f"exhausted: {count} candidates tried")
            return (
                Rejected("exhausted", store.constraints),
                NegotiationTrace(tuple(trace), count),
            )
        count += 1
        trace.append(f"candidate {count}")
        _describe(candidate, trace)

        violations = check_control_flow(software, candidate)
        if violations:
            for v in violations:
                trace.append("  " + v.message())
            for c in sort_constraints(dict.fromkeys(v.feedback for v in violations)):
                store.add_constraint(c)
                trace.append("  constraint: " + str(c))
            trace.append("  reject: control_flow")
            continue

        try:
            normal, init = store.task_graphs(candidate)
        except GraphError as exc:
            trace.append(f"  structure: {exc}")
            forbid = ForbidConjunction(frozenset(ConnLit(*c) for c in candidate.connections))
            store.add_constraint(forbid)
            trace.append("  constraint: " + str(forbid))
            trace.append("  reject: structure")
            continue

        normal_report = check_timing(normal, candidate, platform, model)
        init_report = check_timing(init, candidate, platform, model)
        for line in _report_lines(normal_report, init_report):
            trace.append("  " + line)
        pending = sort_constraints(
            dict.fromkeys(tuple(normal_report.constraints) + tuple(init_report.constraints))
        )
        if pending:
            for c in pending:
                store.add_constraint(c)
                trace.append("  constraint: " + str(c))
            trace.append("  reject: timing")
            continue

        trace.append(f"accept: candidate {count}")
        return (
            Accepted(
                candidate,
                _report_lines(normal_report, init_report),
                previous=current,
                constraints=store.constraints,
            ),
            NegotiationTrace(tuple(trace), count),
        )

    trace.append(f"budget: {budget} candidates tried")
    return Rejected("budget", store.constraints), NegotiationTrace(tuple(trace), count)
