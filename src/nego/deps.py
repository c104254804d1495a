"""Dependency resolution: which provider can serve which required service.

Works on the transitive closure of components reachable from the pinned set:
a provider's own requirements join the problem only in solutions where it is
chosen, but the candidate summary covers every component any choice could
pull in.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterator, Mapping, NamedTuple

from nego.dsl import ServiceInterface, SoftwareModel
from nego.model import ModelError


class ConnectionCandidates(NamedTuple):
    """Provider options per (client, service) pair over the reachable set.

    must: pairs with exactly one provider, as (client, service, provider).
    may: pairs with several providers, mapped to the sorted provider tuple.
    unsatisfiable: pairs with no provider at all.
    requirements: the services each component requires, sorted.  With must
    and may, they let ConnectionSearch enumerate solutions without going
    back to the full software model.
    """

    pinned: frozenset[str]
    must: frozenset[tuple[str, str, str]]
    may: Mapping[tuple[str, str], tuple[str, ...]]
    unsatisfiable: frozenset[tuple[str, str]]
    requirements: Mapping[str, tuple[str, ...]]


def connection_candidates(software: SoftwareModel, pinned: frozenset[str]) -> ConnectionCandidates:
    for comp in sorted(pinned):
        if comp not in software.contracts:
            raise ModelError(f"pinned component {comp!r} does not exist")

    providers_of: dict[str, list[str]] = {}
    for comp in software.component_names():
        for service in software.contracts[comp].provides:
            providers_of.setdefault(service, []).append(comp)

    must: set[tuple[str, str, str]] = set()
    may: dict[tuple[str, str], tuple[str, ...]] = {}
    unsat: set[tuple[str, str]] = set()
    requirements: dict[str, tuple[str, ...]] = {}  # the reachable components, each once
    agenda = list(pinned)
    while agenda:
        comp = agenda.pop()
        if comp in requirements:
            continue
        services = tuple(sorted(software.contracts[comp].requires))
        requirements[comp] = services
        for service in services:
            options = tuple(p for p in providers_of.get(service, ()) if p != comp)
            if not options:
                unsat.add((comp, service))
            elif len(options) == 1:
                must.add((comp, service, options[0]))
            else:
                may[(comp, service)] = options
            agenda += options
    return ConnectionCandidates(
        pinned=frozenset(pinned),
        must=frozenset(must),
        may=may,
        unsatisfiable=frozenset(unsat),
        requirements=requirements,
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
        # (client, service) -> provider options; an unsatisfiable pair has none
        self._options = {(c, s): (p,) for c, s, p in candidates.must} | dict(candidates.may)
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
        self.levels.append([client, service, self._options.get((client, service), ()), -1])
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

    def choose_forced(self) -> bool:
        """Decide the smallest pending pair while it has at most one provider
        option, so that deciding it chooses nothing: open a level for it and
        choose that provider.  False when a pair has no admissible provider;
        its level is then closed, and the levels decided before it stay open
        for the caller to retract."""
        while self._pending and len(self._options.get(self._pending[0], ())) < 2:
            self.open()
            if not self.choose_next():
                return False
        return True

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
