"""Control-flow admission: provider-stated call ordering over a configuration.

A provider may require that one of its methods is never reached before
another has been called.  Calls made during initialization mode complete
before normal mode starts, so an initialization-mode call of the
prerequisite satisfies the ordering for every normal-mode caller.  Ordering
between distinct initialization chains is not defined, so an
initialization-mode call of the forbidden method is only admitted when the
same thread calls the prerequisite in an earlier step.

Only the ordering rules of selected providers are checked.  The check
starts from them: a selection that states none needs no walk of thread
modes, and otherwise only the call sites of a method some rule names are
indexed.
"""

from __future__ import annotations

from typing import NamedTuple

from nego.constraints import ConnLit, ForbidConjunction, SelLit
from nego.dsl import Initialization, MethodRef, SoftwareModel, Thread, TimeActivation
from nego.model import Configuration, QualId
from nego.taskgraph import INITIALIZATION, NORMAL


class CallSite(NamedTuple):
    """One routed call step of a selected thread that executes in some
    mode, with those modes and the provider the configuration routes the
    call to."""

    client: str
    thread: Thread
    index: int
    provider: str
    modes: frozenset[str]


def _method(ref: MethodRef) -> tuple[str, str]:
    """Key under which calls of a method are indexed; arguments do not count."""
    return ref.service, ref.method


def thread_modes(software: SoftwareModel, cfg: Configuration) -> dict[QualId, frozenset[str]]:
    """Modes each selected thread executes in: activation mode plus every
    mode of every caller.  A worklist starts at the activated threads and
    expands each thread at most once per mode, following its routed calls
    to the provider's entry thread."""
    modes: dict[QualId, set[str]] = {}
    work: list[tuple[str, Thread, str]] = []
    for comp in cfg.selected:
        for thread in software.contracts[comp].threads:
            modes[(comp, thread.name)] = set()
            if isinstance(thread.activation, TimeActivation):
                work.append((comp, thread, NORMAL))
            elif isinstance(thread.activation, Initialization):
                work.append((comp, thread, INITIALIZATION))
    while work:
        comp, thread, mode = work.pop()
        reached = modes[(comp, thread.name)]
        if mode in reached:
            continue
        reached.add(mode)
        for _, call in thread.calls():
            provider = cfg.provider_of(comp, call.ref.service)
            if provider is None:
                continue
            entry = software.contracts[provider].entry_thread(call.ref.service, call.ref.method)
            if entry is not None:
                work.append((provider, entry, mode))
    return {key: frozenset(value) for key, value in modes.items()}


class CfViolation(NamedTuple):
    provider: str
    forbidden: MethodRef
    prerequisite: MethodRef
    client: str
    thread: str
    mode: str
    feedback: ForbidConjunction

    def message(self) -> str:
        return (
            f"control_flow: {self.provider}.{self.forbidden.service}.{self.forbidden.method}"
            f" reachable before {self.prerequisite.method} via {self.client}/{self.thread}"
        )


def _unselected_initializers(software: SoftwareModel, cfg: Configuration, prerequisite: MethodRef) -> list[str]:
    """Components not selected whose contract would call the prerequisite
    from an initialization thread if they were."""
    found = []
    for name in software.component_names():
        if name in cfg.selected:
            continue
        for thread in software.contracts[name].threads:
            if not isinstance(thread.activation, Initialization):
                continue
            if any(_method(call.ref) == _method(prerequisite) for _, call in thread.calls()):
                found.append(name)
                break
    return found


def check_control_flow(software: SoftwareModel, cfg: Configuration) -> list[CfViolation]:
    rules = [(p, req) for p in cfg.selected for req in software.contracts[p].control_flow]
    if not rules:
        return []
    rules.sort(key=lambda rule: rule[0])  # by provider; stable, so each provider's rules keep their order
    named = {_method(ref) for _, req in rules for ref in (req.forbidden, req.prerequisite)}
    modes = thread_modes(software, cfg)
    sites: dict[tuple[str, str], list[CallSite]] = {}  # by called method, only the methods a rule names
    for comp in sorted(cfg.selected):
        for thread in software.contracts[comp].threads:
            executing = modes[(comp, thread.name)]
            if not executing:
                continue
            for index, call in thread.calls():
                key = _method(call.ref)
                if key not in named:
                    continue
                provider = cfg.provider_of(comp, call.ref.service)
                if provider is None:
                    continue
                sites.setdefault(key, []).append(CallSite(comp, thread, index, provider, executing))
    violations: list[CfViolation] = []
    seen: set[tuple] = set()
    for provider, req in rules:
        forbidden, prerequisite = req.forbidden, req.prerequisite
        prerequisite_key = _method(prerequisite)
        initializers = [s for s in sites.get(prerequisite_key, ()) if INITIALIZATION in s.modes]
        # An initialization-mode call of the prerequisite on this
        # provider covers every normal-mode caller; otherwise each such
        # call is routed elsewhere, and its route is part of the reason.
        normal_covered = any(s.provider == provider for s in initializers)
        routed_elsewhere = {ConnLit(s.client, prerequisite.service, s.provider) for s in initializers}
        for site in sites.get(_method(forbidden), ()):
            if site.provider != provider:
                continue
            # route of the calling thread's own call of the prerequisite in an earlier step
            earlier = any(
                _method(call.ref) == prerequisite_key for i, call in site.thread.calls() if i < site.index
            )
            earlier_route = cfg.provider_of(site.client, prerequisite.service) if earlier else None
            if earlier_route == provider:
                continue
            for mode in sorted(site.modes):
                if mode == NORMAL and normal_covered:
                    continue
                key = (provider, str(forbidden), str(prerequisite), site.client, site.thread.name, mode)
                if key in seen:
                    continue
                seen.add(key)
                literals: set = {ConnLit(site.client, forbidden.service, provider)}
                if earlier_route is not None:
                    literals.add(ConnLit(site.client, prerequisite.service, earlier_route))
                if mode == NORMAL:
                    literals |= routed_elsewhere
                    for dormant in _unselected_initializers(software, cfg, prerequisite):
                        literals.add(SelLit(dormant, False))
                violations.append(
                    CfViolation(
                        provider=provider,
                        forbidden=forbidden,
                        prerequisite=prerequisite,
                        client=site.client,
                        thread=site.thread.name,
                        mode=mode,
                        feedback=ForbidConjunction(frozenset(literals)),
                    )
                )
    violations.sort(key=lambda v: (v.provider, str(v.forbidden), v.client, v.thread, v.mode))
    return violations
