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

The device needs the verdict; the trace is an audit record read on
request.  So `negotiate` keeps one record of the objects it already has:
the requests, the revalidation, each candidate with its `Evaluation` (which
holds the constraints it fed back) and how the search ended.  The trace
text is rendered from that record only when `NegotiationTrace.lines` is
first read.  An `Evaluation` likewise renders its report lines and reason
only when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

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
    """What one negotiation did, in the order it did it: the requests, the
    revalidation of the current configuration (why it could not be
    evaluated, its `Evaluation`, or None without one), one (candidate, its
    `Evaluation`) step per candidate, numbered from 1, and how a search that
    accepted nothing ended: "exhausted", "budget", or None."""

    requests: tuple[UpdateRequest, ...]
    revalidation: str | Evaluation | None
    steps: tuple[tuple[Configuration, Evaluation], ...]
    end: str | None

    @property
    def candidates(self) -> int:
        return len(self.steps)

    @cached_property
    def lines(self) -> tuple[str, ...]:
        """The trace text, one line per entry, rendered on first read."""
        out = [f"request: {r.change} {r.contract.component}" for r in self.requests]
        reval = self.revalidation
        if reval is not None:
            reason = reval if isinstance(reval, str) else reval.reason
            out.append(f"revalidation: {reason or 'ok'}")
        for number, (candidate, result) in enumerate(self.steps, 1):
            out.append(f"candidate {number}")
            _describe(candidate, out)
            out.extend("  " + line for line in result.lines)
            if result.layer is None:
                out.append(f"accept: candidate {number}")
            else:
                out.extend(f"  constraint: {c}" for c in result.constraints)
                out.append(f"  reject: {result.layer}")
        if self.end is not None:
            out.append(f"{self.end}: {self.candidates} candidates tried")
        return tuple(out)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class Evaluation(NamedTuple):
    """What the analyses said about one configuration.

    `layer` is the rejecting layer (`control_flow`, `structure` or
    `timing`), None when the configuration passes.  `findings` is what the
    last layer that ran found: its control-flow violations, the graph
    error's message, or the timing reports of both modes.  `lines`, the
    report of that layer (on a pass, the timing report of both modes), and
    `reason`, one line on the first failure ("" on a pass), are rendered
    from the findings when read.
    """

    layer: str | None
    constraints: tuple[Constraint, ...]
    findings: tuple

    @property
    def lines(self) -> tuple[str, ...]:
        if self.layer == "control_flow":
            return tuple(v.message() for v in self.findings)
        if self.layer == "structure":
            return (f"structure: {self.findings[0]}",)
        normal, init = self.findings
        return tuple(normal.lines() + [v.line() for v in init.verdicts])

    @property
    def reason(self) -> str:
        if self.layer != "timing":
            return self.lines[0] if self.layer else ""
        failed = next((v for r in self.findings for v in r.verdicts if not v.passed), None)
        return "utilization overload" if failed is None else failed.line()


def evaluate(software: SoftwareModel, store: ConstraintStore, cfg: Configuration, model: str) -> Evaluation:
    """Run the viewpoint analyses on a well-formed configuration."""
    violations = check_control_flow(software, cfg)
    if violations:
        constraints = tuple(sort_constraints(dict.fromkeys(v.feedback for v in violations)))
        return Evaluation("control_flow", constraints, tuple(violations))

    try:
        normal, init = store.timing_contexts(cfg)
    except GraphError as exc:
        forbid = ForbidConjunction(frozenset(ConnLit(*c) for c in cfg.connections))
        return Evaluation("structure", (forbid,), (str(exc),))

    normal_report = check_timing(normal, cfg, model)
    init_report = check_timing(init, cfg, model)
    constraints = tuple(
        sort_constraints(dict.fromkeys(normal_report.constraints + init_report.constraints))
    )
    return Evaluation("timing" if constraints else None, constraints, (normal_report, init_report))


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
    software = apply_updates(system.software, requests)
    pinned = pinned_components(software)
    platform = system.platform
    current = system.config
    store = ConstraintStore(software, platform, pinned)
    revalidation: str | Evaluation | None = None
    steps: list[tuple[Configuration, Evaluation]] = []

    def trace(end: str | None = None) -> NegotiationTrace:
        return NegotiationTrace(tuple(requests), revalidation, tuple(steps), end)

    if current is not None:
        revalidation = _check_current(software, platform, current, pinned) or evaluate(
            software, store, current, model
        )
        if isinstance(revalidation, Evaluation) and revalidation.layer is None:
            return Accepted(current, revalidation.lines, previous=current), trace()

    while len(steps) < budget:
        candidate = store.next_candidate()
        if candidate is None:
            return Rejected("exhausted", store.constraints), trace("exhausted")
        result = evaluate(software, store, candidate, model)
        steps.append((candidate, result))
        if result.layer is None:
            return Accepted(candidate, result.lines, previous=current, constraints=store.constraints), trace()
        for c in result.constraints:
            store.add_constraint(c)

    return Rejected("budget", store.constraints), trace("budget")
