"""Constraints over the configuration space.

Analysis engines reject candidates by emitting constraints; the store prunes
every later candidate against them.  Constraints are built from literals,
each a tuple led by its kind:

    ("sel", component, value)            component selected (True) or not
    ("conn", client, service, provider)  the client's service routed there
    ("map", component, task, resource)   the task mapped onto the resource

The store's trail builds and hashes the same tuples for the choices it
makes, so a learned literal is its own key there.  The leading kind keeps
literals of different kinds apart whatever their fields.  `holds` and
`literal_text` are the only readers.

Two kinds of constraint exist: forbidden literal conjunctions (structural
nogoods), and priority nogoods whose pair set must not hold in full while
their structural context matches.  A precedence is the nogood with no
context and the one pair that reverses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from nego.model import Configuration, QualId, qual_str


Literal = tuple  # ("sel", ...), ("conn", ...) or ("map", ...)


def SelLit(component: str, value: bool) -> Literal:
    return ("sel", component, value)


def ConnLit(client: str, service: str, provider: str) -> Literal:
    return ("conn", client, service, provider)


def MapLit(component: str, task: str, resource: str) -> Literal:
    return ("map", component, task, resource)


def holds(lit: Literal, cfg: Configuration) -> bool:
    kind = lit[0]
    if kind == "conn":
        return lit[1:] in cfg.connections
    if kind == "map":
        return cfg.mapping.get(lit[1:3]) == lit[3]
    return (lit[1] in cfg.selected) == lit[2]


def literal_text(lit: Literal) -> str:
    kind = lit[0]
    if kind == "conn":
        return f"conn[{lit[1]},{lit[2]}]={lit[3]}"
    if kind == "map":
        return f"map[{lit[1]}.{lit[2]}]={lit[3]}"
    return f"sel[{lit[1]}]={'true' if lit[2] else 'false'}"


@dataclass(frozen=True)
class ForbidConjunction:
    """Reject any configuration on which every literal holds.

    The empty conjunction holds vacuously and empties the space.
    """

    literals: frozenset[Literal]

    def blocks(self, cfg: Configuration) -> bool:
        return all(holds(lit, cfg) for lit in self.literals)

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        # rendered once: constraints are sorted by their text, more than once
        return "forbid{" + ", ".join(sorted(map(literal_text, self.literals))) + "}"


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
        return all(holds(lit, cfg) for lit in self.context)

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
        ctx = ", ".join(sorted(map(literal_text, self.context)))
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
