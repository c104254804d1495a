"""Constraints over the configuration space.

Analysis engines reject candidates by emitting constraints; the store prunes
every later candidate against them.  Two kinds exist: forbidden literal
conjunctions (structural nogoods), and priority nogoods whose pair set must
not hold in full while their structural context matches.  A precedence is
the nogood with no context and the one pair that reverses it.
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


def PriorityPrecedence(above: QualId, below: QualId) -> PriorityNogood:
    """Thread `above` must outrank thread `below` whenever both are selected:
    the nogood on "below outranks above", in every context."""
    return PriorityNogood(frozenset(), frozenset({(below, above)}))


Constraint = ForbidConjunction | PriorityNogood


def configuration_ok(cfg: Configuration, constraints: Iterable[Constraint]) -> bool:
    """True iff the complete configuration violates no constraint."""
    ranks = cfg.ranks()
    for c in constraints:
        if isinstance(c, ForbidConjunction):
            if c.blocks(cfg):
                return False
        elif c.violated_by(cfg, ranks):
            return False
    return True


def sort_constraints(constraints: Iterable[Constraint]) -> list[Constraint]:
    return sorted(constraints, key=str)
