"""System model: platform resources, configurations, updates, answers.

A configuration fixes the selected components, one provider per required
service, a task-to-resource mapping, and a strict thread priority order.
Tasks and threads are addressed as (component, name) pairs; the file format
spells them dotted, e.g. ``P.park_assist``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

from nego.dsl import MAX_DIGITS, Contract, DslError, SoftwareModel, TimeActivation, check_against_repository

QualId = tuple[str, str]  # (component, task-or-thread name)


def qual_str(q: QualId) -> str:
    return f"{q[0]}.{q[1]}"


def parse_qual(text: str) -> QualId:
    comp, sep, name = text.partition(".")
    if not sep or not comp or not name:
        raise ModelError(f"expected component.name, found {text!r}")
    return comp, name


class ModelError(ValueError):
    """Names that do not resolve, malformed files, bad update requests."""


class UpdateError(ModelError):
    pass


class Resource(NamedTuple):
    name: str
    rtype: str


class PlatformModel(NamedTuple):
    resources: tuple[Resource, ...]

    def resource(self, name: str) -> Resource:
        for r in self.resources:
            if r.name == name:
                return r
        raise ModelError(f"unknown resource {name!r}")


def parse_platform(text: str) -> PlatformModel:
    """One `resource <name> type <rtype>` line per resource: at least one
    resource, no name twice, and no name holding `->`, which separates the
    fields of a configuration's mapping line."""
    resources = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4 or parts[0] != "resource" or parts[2] != "type":
            raise ModelError(f"platform line {lineno}: expected 'resource <name> type <rtype>'")
        if "->" in parts[1]:
            raise ModelError(f"platform line {lineno}: resource name {parts[1]!r} holds '->'")
        resources.append(Resource(parts[1], parts[3]))
    if not resources:
        raise ModelError("platform declares no resources")
    if len({r.name for r in resources}) != len(resources):
        raise ModelError("duplicate resource name in platform")
    return PlatformModel(tuple(resources))


def render_platform(platform: PlatformModel) -> str:
    return "".join(f"resource {r.name} type {r.rtype}\n" for r in platform.resources)


@dataclass(frozen=True)
class Configuration:
    selected: frozenset[str]
    connections: frozenset[tuple[str, str, str]]  # (client, service, provider)
    mapping: Mapping[QualId, str]  # task -> resource name
    priorities: tuple[QualId, ...]  # threads, highest priority first

    def ranks(self) -> dict[QualId, int]:
        return {t: i for i, t in enumerate(self.priorities)}

    @cached_property
    def routes(self) -> dict[tuple[str, str], tuple[str, str, str]]:
        """The connection, (client, service, provider), of each (client,
        service) pair: the very tuple `connections` holds."""
        # every caller passes at most one provider per (client, service):
        # the search proposes one, and a loaded configuration is refused
        # first if it routes a pair twice (by the revalidation's condition 2
        # in negotiate, by cli._task_graphs in graph, bound and simulate)
        return {conn[:2]: conn for conn in self.connections}

    def provider_of(self, client: str, service: str) -> str | None:
        route = self.routes.get((client, service))
        return None if route is None else route[2]


class SystemModel(NamedTuple):
    software: SoftwareModel
    platform: PlatformModel
    config: Configuration | None = None


class UpdateRequest(NamedTuple):
    change: str  # "add" | "remove" | "update"
    contract: Contract

    @classmethod
    def add(cls, contract: Contract) -> "UpdateRequest":
        return cls("add", contract)

    @classmethod
    def remove(cls, component: str) -> "UpdateRequest":
        return cls("remove", Contract(component=component))

    @classmethod
    def update(cls, contract: Contract) -> "UpdateRequest":
        return cls("update", contract)


def apply_update(software: SoftwareModel, request: UpdateRequest) -> SoftwareModel:
    """Return a new software model with the request applied.

    Pure: the input model is left untouched.  An added or updated contract
    is checked against the service repository like an installed one, and a
    mismatch raises DslValidationError.
    """
    name = request.contract.component
    contracts = dict(software.contracts)
    if request.change == "add":
        if name in contracts:
            raise UpdateError(f"component {name!r} already present")
        check_against_repository(request.contract, software.interfaces)
        contracts[name] = request.contract
    elif request.change == "remove":
        if name not in contracts:
            raise UpdateError(f"component {name!r} not present")
        del contracts[name]
    elif request.change == "update":
        if name not in contracts:
            raise UpdateError(f"component {name!r} not present")
        check_against_repository(request.contract, software.interfaces)
        contracts[name] = request.contract
    else:
        raise UpdateError(f"unknown change kind {request.change!r}")
    return SoftwareModel(contracts, software.interfaces)


def apply_updates(software: SoftwareModel, requests: Sequence[UpdateRequest]) -> SoftwareModel:
    """Apply the requests in order.  A DslError carries the index of the
    request at fault in `source`."""
    for index, request in enumerate(requests):
        try:
            software = apply_update(software, request)
        except DslError as exc:
            exc.source = index
            raise
    return software


def pinned_components(software: SoftwareModel) -> frozenset[str]:
    """Components with a time-activated thread: top-level functions that any
    admitted configuration must keep selected."""
    return frozenset(
        name
        for name, contract in software.contracts.items()
        if any(isinstance(t.activation, TimeActivation) for t in contract.threads)
    )


# ---------------------------------------------------------------------------
# Well-formedness


class Violation(NamedTuple):
    condition: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.condition}] {self.subject}: {self.message}"


def resolve_names(
    cfg: Configuration, software: SoftwareModel, platform: PlatformModel | None = None
) -> None:
    """Raise ModelError if the configuration references unknown names.

    Resource names are only checked when a platform is given.
    """
    for comp in sorted(cfg.selected):
        if comp not in software.contracts:
            raise ModelError(f"selected component {comp!r} does not exist")
    for c1, s, c2 in sorted(cfg.connections):
        for comp in (c1, c2):
            if comp not in software.contracts:
                raise ModelError(f"connection references unknown component {comp!r}")
        if s not in software.interfaces:
            raise ModelError(f"connection references unknown service {s!r}")
    for (comp, task), res in sorted(cfg.mapping.items()):
        if comp not in software.contracts:
            raise ModelError(f"mapping references unknown component {comp!r}")
        if task not in software.contracts[comp].task_names():
            raise ModelError(f"component {comp!r} has no task {task!r}")
        if platform is not None:
            platform.resource(res)
    for comp, thread in cfg.priorities:
        if comp not in software.contracts:
            raise ModelError(f"priority order references unknown component {comp!r}")
        if thread not in software.contracts[comp].thread_names():
            raise ModelError(f"component {comp!r} has no thread {thread!r}")


def provider_faults(cfg: Configuration, pairs) -> list[tuple[str, str]]:
    """(subject, message) of each (client, service) of `pairs`, in sorted
    order, that is not connected to exactly one provider: condition 2."""
    counts = Counter((c1, s) for c1, s, _ in cfg.connections)
    return [
        (f"{c1} -> {s}", f"{counts[c1, s]} providers connected, need exactly 1")
        for c1, s in sorted(pairs)
        if counts[c1, s] != 1
    ]


def check_well_formed(
    cfg: Configuration, software: SoftwareModel, platform: PlatformModel
) -> list[Violation]:
    """All six admission checks; each violation names the failed condition."""
    resolve_names(cfg, software, platform)
    violations: list[Violation] = []

    def bad(condition: str, subject: str, message: str) -> None:
        violations.append(Violation(condition, subject, message))

    # 1: connections join distinct selected components with matching roles.
    for c1, s, c2 in sorted(cfg.connections):
        subject = f"{c1} -> {s} -> {c2}"
        if c1 == c2:
            bad("1", subject, "component connected to itself")
            continue
        if c1 not in cfg.selected or c2 not in cfg.selected:
            bad("1", subject, "connection endpoint not selected")
            continue
        if s not in software.contracts[c1].requires:
            bad("1", subject, f"{c1} does not require {s}")
        if s not in software.contracts[c2].provides:
            bad("1", subject, f"{c2} does not provide {s}")

    # 2: exactly one provider per required service of every selected component.
    required = {(c1, s) for c1 in cfg.selected for s in software.contracts[c1].requires}
    for subject, message in provider_faults(cfg, required):
        bad("2", subject, message)

    # 3: mapping covers exactly the tasks of selected components, type-compatibly.
    expected_tasks = {
        (c, t.name): t.resource_type
        for c in cfg.selected
        for th in software.contracts[c].threads
        for t in th.tasks()
    }
    for task_id in sorted(expected_tasks):
        if task_id not in cfg.mapping:
            bad("3", qual_str(task_id), "task not mapped")
            continue
        res = platform.resource(cfg.mapping[task_id])
        if res.rtype != expected_tasks[task_id]:
            bad(
                "3",
                qual_str(task_id),
                f"needs {expected_tasks[task_id]}, mapped to {res.name} of type {res.rtype}",
            )
    for task_id in sorted(cfg.mapping):
        if task_id not in expected_tasks:
            bad("3", qual_str(task_id), "mapped task does not belong to a selected component")

    # 4: the priority order covers exactly the threads of selected components,
    # so every task inherits exactly one priority through its thread.
    expected_threads = {(c, th.name) for c in cfg.selected for th in software.contracts[c].threads}
    listed = set(cfg.priorities)
    for th in sorted(expected_threads - listed):
        bad("4", qual_str(th), "thread has no priority")
    for th in sorted(listed - expected_threads):
        bad("4", qual_str(th), "priority assigned to a thread of an unselected component")

    # max_clients: bounded services cap the number of clients per provider.
    clients = Counter((c2, s) for _, s, c2 in cfg.connections)
    for (c2, s), count in sorted(clients.items()):
        bound = software.interfaces[s].max_clients
        if bound is not None and count > bound:
            bad("max_clients", f"{c2} / {s}", f"{count} clients connected, at most {bound} allowed")

    # strict priorities: no thread listed twice.
    seen: set[QualId] = set()
    for th in cfg.priorities:
        if th in seen:
            bad("priority_strict", qual_str(th), "thread listed more than once")
        seen.add(th)

    return violations


# ---------------------------------------------------------------------------
# Answers


class Accepted(NamedTuple):
    config: Configuration
    report: tuple[str, ...]
    previous: Configuration | None = None
    constraints: tuple = ()

    @property
    def ok(self) -> bool:
        return True


class Rejected(NamedTuple):
    reason: str
    constraints: tuple = ()

    @property
    def ok(self) -> bool:
        return False


Answer = Accepted | Rejected


# ---------------------------------------------------------------------------
# Configuration files


def render_configuration(cfg: Configuration) -> str:
    out = ["[selected]"]
    out.extend(sorted(cfg.selected))
    out.append("[connections]")
    out.extend(f"{c1} -> {s} -> {c2}" for c1, s, c2 in sorted(cfg.connections))
    out.append("[mapping]")
    out.extend(f"{qual_str(t)} -> {cfg.mapping[t]}" for t in sorted(cfg.mapping))
    out.append("[priorities]")
    out.extend(f"{rank} {qual_str(th)}" for rank, th in enumerate(cfg.priorities))
    return "\n".join(out) + "\n"


def parse_configuration(text: str) -> Configuration:
    selected: set[str] = set()
    connections: set[tuple[str, str, str]] = set()
    mapping: dict[QualId, str] = {}
    ranked: list[tuple[int, QualId]] = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("["):
            if line not in ("[selected]", "[connections]", "[mapping]", "[priorities]"):
                raise ModelError(f"configuration line {lineno}: unknown section {line}")
            section = line
            continue
        if section == "[selected]":
            selected.add(line)
        elif section == "[connections]":
            parts = [p.strip() for p in line.split("->")]
            if len(parts) != 3:
                raise ModelError(f"configuration line {lineno}: expected 'client -> service -> provider'")
            connections.add((parts[0], parts[1], parts[2]))
        elif section == "[mapping]":
            parts = [p.strip() for p in line.split("->")]
            if len(parts) != 2:
                raise ModelError(f"configuration line {lineno}: expected 'component.task -> resource'")
            task = parse_qual(parts[0])
            if task in mapping:
                raise ModelError(f"configuration line {lineno}: task {qual_str(task)} mapped twice")
            mapping[task] = parts[1]
        elif section == "[priorities]":
            parts = line.split()
            if len(parts) != 2 or not (parts[0].isascii() and parts[0].isdecimal()):
                raise ModelError(f"configuration line {lineno}: expected '<rank> component.thread'")
            if len(parts[0]) > MAX_DIGITS:
                raise ModelError(f"configuration line {lineno}: rank has {len(parts[0])} digits, more than {MAX_DIGITS}")
            ranked.append((int(parts[0]), parse_qual(parts[1])))
        else:
            raise ModelError(f"configuration line {lineno}: content before any section header")
    ranked.sort(key=lambda rt: rt[0])
    if [r for r, _ in ranked] != list(range(len(ranked))):
        raise ModelError("priority ranks must be 0..n-1 without gaps")
    return Configuration(frozenset(selected), frozenset(connections), mapping, tuple(t for _, t in ranked))
