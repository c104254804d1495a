"""Constraints over the configuration space.

Analysis engines reject candidates by emitting constraints; the store prunes
every later candidate against them.  Three kinds exist: forbidden literal
conjunctions (structural nogoods), unconditional priority precedences, and
priority nogoods whose pair set must not hold in full while their structural
context matches.  Priority search sees only nogoods: a precedence reaches it
as the one-pair nogood that forbids its reverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from nego.model import Configuration, QualId, qual_str


@dataclass(frozen=True)
class SelLit:
    component: str
    value: bool

    def holds(self, cfg: Configuration) -> bool:
        return (self.component in cfg.selected) == self.value

    def __str__(self) -> str:
        return f"sel[{self.component}]={'true' if self.value else 'false'}"


@dataclass(frozen=True)
class ConnLit:
    client: str
    service: str
    provider: str

    def holds(self, cfg: Configuration) -> bool:
        return (self.client, self.service, self.provider) in cfg.connections

    def __str__(self) -> str:
        return f"conn[{self.client},{self.service}]={self.provider}"


@dataclass(frozen=True)
class MapLit:
    component: str
    task: str
    resource: str

    def holds(self, cfg: Configuration) -> bool:
        return cfg.mapping.get((self.component, self.task)) == self.resource

    def __str__(self) -> str:
        return f"map[{self.component}.{self.task}]={self.resource}"


Literal = SelLit | ConnLit | MapLit


@dataclass(frozen=True)
class ForbidConjunction:
    """Reject any configuration on which every literal holds.

    The empty conjunction holds vacuously and empties the space.
    """

    literals: frozenset[Literal]

    def blocks(self, cfg: Configuration) -> bool:
        return all(lit.holds(cfg) for lit in self.literals)

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        # rendered once: constraints are sorted by their text, more than once
        return "forbid{" + ", ".join(sorted(str(l) for l in self.literals)) + "}"


@dataclass(frozen=True)
class PriorityPrecedence:
    """Thread `above` must outrank thread `below` whenever both are selected."""

    above: QualId
    below: QualId

    def violated_by(self, ranks: Mapping[QualId, int]) -> bool:
        if self.above not in ranks or self.below not in ranks:
            return False
        return ranks[self.above] > ranks[self.below]

    def __str__(self) -> str:
        return f"precedence{{{qual_str(self.above)} above {qual_str(self.below)}}}"


@dataclass(frozen=True)
class PriorityNogood:
    """Forbidden priority pattern, conditional on a structural context.

    Each pair (t, m) reads "t outranks m".  A candidate whose context holds
    and on which every pair holds is rejected: at least one listed thread
    must be demoted below its partner.  Pairs naming unselected threads
    cannot hold.
    """

    context: frozenset[Literal]
    pairs: frozenset[tuple[QualId, QualId]]

    def applies(self, cfg: Configuration) -> bool:
        return all(lit.holds(cfg) for lit in self.context)

    def violated_by(self, cfg: Configuration, ranks: Mapping[QualId, int] | None = None) -> bool:
        if not self.applies(cfg):
            return False
        return self.pairs_hold(cfg.ranks() if ranks is None else ranks)

    def pairs_hold(self, ranks: Mapping[QualId, int]) -> bool:
        """Every pair holds under the ranks; the context is not looked at."""
        return bool(self.pairs) and all(
            t in ranks and m in ranks and ranks[t] < ranks[m] for t, m in self.pairs
        )

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        pairs = ", ".join(sorted(f"{qual_str(t)} above {qual_str(m)}" for t, m in self.pairs))
        ctx = ", ".join(sorted(str(l) for l in self.context))
        return f"priority-nogood{{{pairs}}} given {{{ctx}}}"


Constraint = ForbidConjunction | PriorityPrecedence | PriorityNogood


def configuration_ok(cfg: Configuration, constraints: Iterable[Constraint]) -> bool:
    """True iff the complete configuration violates no constraint."""
    ranks = cfg.ranks()
    for c in constraints:
        if isinstance(c, ForbidConjunction):
            if c.blocks(cfg):
                return False
        elif isinstance(c, PriorityPrecedence):
            if c.violated_by(ranks):
                return False
        else:
            if c.violated_by(cfg, ranks):
                return False
    return True


def active_priority_constraints(constraints: Iterable[Constraint], cfg: Configuration) -> list[PriorityNogood]:
    """The priority constraints binding this structural candidate, as
    nogoods: `PriorityPrecedence(a, b)` becomes the nogood on "b above a"."""
    nogoods: list[PriorityNogood] = []
    for c in constraints:
        if isinstance(c, PriorityPrecedence):
            nogoods.append(PriorityNogood(frozenset(), frozenset({(c.below, c.above)})))
        elif isinstance(c, PriorityNogood) and c.applies(cfg):
            nogoods.append(c)
    return nogoods


def sort_constraints(constraints: Iterable[Constraint]) -> list[Constraint]:
    return sorted(constraints, key=str)
