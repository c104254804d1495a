"""Dependency resolution: which provider can serve which required service.

Works on the transitive closure of components reachable from the pinned set:
a provider's own requirements join the problem only in solutions where it is
chosen, but the candidate summary covers every component any choice could
pull in.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Iterator, Mapping

from nego.dsl import ServiceInterface, SoftwareModel
from nego.model import ModelError


@dataclass(frozen=True)
class ConnectionCandidates:
    """Provider options per (client, service) pair over the reachable set.

    must: pairs with exactly one provider, as (client, service, provider).
    may: pairs with several providers, mapped to the sorted provider tuple.
    unsatisfiable: pairs with no provider at all.
    requirements (per component, sorted) and providers (every provider of
    each required service, sorted) describe the reachable sub-model, so
    ConnectionSearch enumerates solutions without going back to the full
    software model.
    """

    pinned: frozenset[str]
    must: frozenset[tuple[str, str, str]]
    may: Mapping[tuple[str, str], tuple[str, ...]]
    unsatisfiable: frozenset[tuple[str, str]]
    requirements: Mapping[str, tuple[str, ...]]
    providers: Mapping[str, tuple[str, ...]]


def connection_candidates(software: SoftwareModel, pinned: frozenset[str]) -> ConnectionCandidates:
    for comp in pinned:
        if comp not in software.contracts:
            raise ModelError(f"pinned component {comp!r} does not exist")

    providers_of: dict[str, list[str]] = {}
    for comp in software.component_names():
        for service in software.contracts[comp].provides:
            providers_of.setdefault(service, []).append(comp)

    reachable: set[str] = set()
    agenda = sorted(pinned)
    while agenda:
        comp = agenda.pop()
        if comp in reachable:
            continue
        reachable.add(comp)
        for service in sorted(software.contracts[comp].requires):
            for provider in providers_of.get(service, ()):
                if provider != comp and provider not in reachable:
                    agenda.append(provider)

    must: set[tuple[str, str, str]] = set()
    may: dict[tuple[str, str], tuple[str, ...]] = {}
    unsat: set[tuple[str, str]] = set()
    requirements: dict[str, tuple[str, ...]] = {}
    providers: dict[str, tuple[str, ...]] = {}
    for comp in sorted(reachable):
        services = tuple(sorted(software.contracts[comp].requires))
        requirements[comp] = services
        for service in services:
            providers[service] = tuple(providers_of.get(service, ()))
            options = tuple(p for p in providers[service] if p != comp)
            if not options:
                unsat.add((comp, service))
            elif len(options) == 1:
                must.add((comp, service, options[0]))
            else:
                may[(comp, service)] = options
    return ConnectionCandidates(
        pinned=frozenset(pinned),
        must=frozenset(must),
        may=may,
        unsatisfiable=frozenset(unsat),
        requirements=requirements,
        providers=providers,
    )


class ConnectionSearch:
    """Depth-first walk over connection assignments on an explicit trail.

    One level per (client, service) pair: the smallest pending pair in name
    order is decided next, by its providers in name order, skipping any
    provider already serving as many clients as its interface allows.  A
    provider joins the selection when first chosen, and its own
    requirements become pending; retracting that choice takes both back.
    The trail holds one selection, one pending list and one entry per
    level, so a caller can stop at any level, test its own constraints
    there, and resume.
    """

    def __init__(
        self, candidates: ConnectionCandidates, interfaces: Mapping[str, ServiceInterface]
    ) -> None:
        self._requirements = candidates.requirements
        self._providers = candidates.providers
        self._bounds = {service: iface.max_clients for service, iface in interfaces.items()}
        self._clients: dict[tuple[str, str], int] = {}  # (service, provider) -> clients
        self._pending = sorted((c, s) for c in candidates.pinned for s in self._requirements.get(c, ()))
        # [client, service, provider options, index of the current choice]
        self.levels: list[list] = []
        # component -> level whose choice selected it; pinned components at -1
        self.selected_at: dict[str, int] = dict.fromkeys(candidates.pinned, -1)

    def open(self) -> bool:
        """Open a level for the smallest pending pair, with no choice made
        yet; False when nothing is pending: the assignment is complete."""
        if not self._pending:
            return False
        client, service = self._pending.pop(0)
        options = tuple(p for p in self._providers.get(service, ()) if p != client)
        self.levels.append([client, service, options, -1])
        return True

    def choose_next(self) -> bool:
        """Choose the top level's next admissible provider.  When none is
        left, close the level and return False."""
        level = self.levels[-1]
        client, service, options, index = level
        bound = self._bounds.get(service)
        for index in range(index + 1, len(options)):
            provider = options[index]
            clients = self._clients.get((service, provider), 0)
            if bound is not None and clients >= bound:
                continue
            level[3] = index
            self._clients[(service, provider)] = clients + 1
            if provider not in self.selected_at:
                self.selected_at[provider] = len(self.levels) - 1
                for required in self._requirements.get(provider, ()):
                    insort(self._pending, (provider, required))
            return True
        self.close()
        return False

    def choice(self) -> tuple[str, str, str]:
        """(client, service, provider) of the top level's current choice."""
        client, service, options, index = self.levels[-1]
        return client, service, options[index]

    def retract(self) -> None:
        """Undo the top level's current choice; the next choose_next goes
        on from the provider after it."""
        _, service, provider = self.choice()
        self._clients[(service, provider)] -= 1
        if self.selected_at[provider] == len(self.levels) - 1:
            del self.selected_at[provider]
            for required in self._requirements.get(provider, ()):
                self._pending.remove((provider, required))

    def close(self) -> None:
        """Drop the top level, which must have no current choice; its pair
        is pending again."""
        client, service, _, _ = self.levels.pop()
        insort(self._pending, (client, service))

    def connections(self) -> frozenset[tuple[str, str, str]]:
        return frozenset((client, service, options[index]) for client, service, options, index in self.levels)

    def assignments(self) -> Iterator[None]:
        """Pause at every complete assignment, in search order."""
        forward = True
        while True:
            if forward and self.open():
                forward = self.choose_next()
                continue
            if forward:
                yield
            if not self.levels:
                return
            self.retract()
            forward = self.choose_next()


def count_solutions(
    candidates: ConnectionCandidates, interfaces: Mapping[str, ServiceInterface]
) -> int:
    """Number of complete connection assignments honouring client bounds.

    Requirements expand lazily: a provider's pairs count only once some
    branch actually selects it.
    """
    return sum(1 for _ in ConnectionSearch(candidates, interfaces).assignments())


def render_candidates(candidates: ConnectionCandidates) -> str:
    out = []
    for client, service, provider in sorted(candidates.must):
        out.append(f"must {client} {service} {provider}")
    for (client, service), options in sorted(candidates.may.items()):
        out.append(f"may {client} {service} {'|'.join(options)}")
    for client, service in sorted(candidates.unsatisfiable):
        out.append(f"unsatisfiable {client} {service}")
    return "\n".join(out) + "\n" if out else ""


def render_dot(candidates: ConnectionCandidates) -> str:
    """Graph description of the dependency options for external rendering."""
    lines = ["digraph dependencies {"]
    comps = sorted(candidates.requirements)
    for comp in comps:
        shape = "box" if comp in candidates.pinned else "ellipse"
        lines.append(f'  "{comp}" [shape={shape}];')
    for client, service, provider in sorted(candidates.must):
        lines.append(f'  "{client}" -> "{provider}" [label="{service}"];')
    for (client, service), options in sorted(candidates.may.items()):
        for provider in options:
            lines.append(f'  "{client}" -> "{provider}" [label="{service}" style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
