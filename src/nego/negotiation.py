"""The negotiation loop: propose a candidate, evaluate it, learn, repeat.

An update request batch is applied to the software model.  The current
configuration is then re-validated as-is, because an unchanged answer is
preferred, and only then does the search start.  Every configuration, the
current one and each candidate, goes through the same `evaluate`: the
viewpoint analyses run cheapest first (control flow, task-graph structure,
timing in both modes) and the first layer that rejects ends the run.  The
revalidation checks the outside input first: the configuration must still
resolve against the updated model, be well-formed and keep every pinned
component.  Each rejection of a candidate feeds its constraints back into
the store, so no failing region is visited twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from nego.constraints import ConnLit, Constraint, ForbidConjunction, sort_constraints
from nego.controlflow import check_control_flow
from nego.dsl import SoftwareModel
from nego.model import (
    Accepted,
    Answer,
    Configuration,
    ModelError,
    PlatformModel,
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
from nego.timing import BUSY_WINDOW, MODELS, check_timing

DEFAULT_BUDGET = 10000


@dataclass(frozen=True)
class NegotiationTrace:
    lines: tuple[str, ...]
    candidates: int

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


@dataclass(frozen=True)
class Evaluation:
    """What the analyses said about one configuration.

    `layer` is the rejecting layer (`control_flow`, `structure` or
    `timing`), None when the configuration passes.  `lines` is the report
    of the last layer that ran; on a pass it is the timing report of both
    modes.  `reason` is one line on the first failure, "" on a pass.
    """

    layer: str | None
    lines: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    reason: str


def evaluate(
    software: SoftwareModel,
    platform: PlatformModel,
    store: ConstraintStore,
    cfg: Configuration,
    model: str,
) -> Evaluation:
    """Run the viewpoint analyses on a well-formed configuration."""
    violations = check_control_flow(software, cfg)
    if violations:
        lines = tuple(v.message() for v in violations)
        constraints = tuple(sort_constraints(dict.fromkeys(v.feedback for v in violations)))
        return Evaluation("control_flow", lines, constraints, lines[0])

    try:
        normal, init = store.task_graphs(cfg)
    except GraphError as exc:
        line = f"structure: {exc}"
        forbid = ForbidConjunction(frozenset(ConnLit(*c) for c in cfg.connections))
        return Evaluation("structure", (line,), (forbid,), line)

    normal_report = check_timing(normal, cfg, platform, model)
    init_report = check_timing(init, cfg, platform, model)
    lines = tuple(normal_report.lines() + [v.line() for v in init_report.verdicts])
    constraints = tuple(
        sort_constraints(dict.fromkeys(normal_report.constraints + init_report.constraints))
    )
    if not constraints:
        return Evaluation(None, lines, (), "")
    failed = next((v for r in (normal_report, init_report) for v in r.verdicts if not v.passed), None)
    reason = "utilization overload" if failed is None else failed.line()
    return Evaluation("timing", lines, constraints, reason)


def _check_current(
    software: SoftwareModel, platform: PlatformModel, cfg: Configuration, pinned: frozenset[str]
) -> str:
    """Why the current configuration cannot be revalidated at all, or ""."""
    try:
        violations = check_well_formed(cfg, software, platform)
    except ModelError as exc:
        return f"stale configuration: {exc}"
    if violations:
        return f"not well-formed: {violations[0]}"
    missing = sorted(pinned - cfg.selected)
    if missing:
        return f"pinned component {missing[0]} not selected"
    return ""


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
        reason = _check_current(software, platform, current, pinned)
        if not reason:
            result = evaluate(software, platform, store, current, model)
            if result.layer is None:
                trace.append("revalidation: ok")
                return (
                    Accepted(current, result.lines, previous=current),
                    NegotiationTrace(tuple(trace), 0),
                )
            reason = result.reason
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

        result = evaluate(software, platform, store, candidate, model)
        trace.extend("  " + line for line in result.lines)
        if result.layer is None:
            trace.append(f"accept: candidate {count}")
            return (
                Accepted(candidate, result.lines, previous=current, constraints=store.constraints),
                NegotiationTrace(tuple(trace), count),
            )
        for c in result.constraints:
            store.add_constraint(c)
            trace.append("  constraint: " + str(c))
        trace.append(f"  reject: {result.layer}")

    trace.append(f"budget: {budget} candidates tried")
    return Rejected("budget", store.constraints), NegotiationTrace(tuple(trace), count)
