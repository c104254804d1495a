"""Configuration-space exploration under accumulated constraints.

The store walks the space depth first on one trail that keeps its place
between calls to `next_candidate`, so each call resumes where the last one
stopped.  Candidates come out in a fixed order:

* connection assignments: one level per (client, service) pair, the
  smallest pending pair first, providers in name order, the selection
  growing with each chosen provider (`deps.ConnectionSearch`);
* task mappings: one level per task in name order, resources in platform
  order;
* priority orders at each structural partial: the name-ordered baseline
  if the priority constraints allow it, then each order
  `synthesize_priorities` finds under the constraints learned so far.
  Synthesis runs again after every learned priority constraint that binds
  the partial and the partial is left as soon as it finds nothing new.
  Synthesis is a complete backtracking search, and every rejection
  excludes its candidate, so no order that the constraints allow is
  skipped.

A forbidden conjunction is checked at the level that decides its last
literal: each literal keeps the conjunctions it occurs in, each conjunction
counts its literals that hold on the trail, and a choice that completes a
count is refused.  Connection-only conjunctions therefore prune connection
levels before any mapping is tried, conjunctions with map literals prune
at the task that decides the last of them, and `sel[c]=false` literals are
decided when the connection assignment is complete.  Conjunctions learned
since the last call are counted against the trail when the search resumes,
and the search backs out of the shallowest level one of them blocks.

The trail holds one selection, one assignment and one mapping, undone on
backtrack: its state grows with the number of levels, not with their
product, and deep systems need no recursion.  Nothing is proposed twice:
the trail never returns to a partial it has left, and at one partial only
new orders are proposed.

Task graphs read only the selection and the connections; `task_graphs`
builds both modes once per structure and serves the store and
`negotiate` alike.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from nego.constraints import (
    Constraint,
    ConnLit,
    ForbidConjunction,
    Literal,
    MapLit,
    PriorityNogood,
    PriorityPrecedence,
    SelLit,
    active_priority_constraints,
    constraint_str,
    sort_constraints,
)
from nego.deps import ConnectionSearch, connection_candidates, render_candidates
from nego.dsl import SoftwareModel
from nego.model import Configuration, ModelError, PlatformModel, QualId, qual_str
from nego.taskgraph import INITIALIZATION, NORMAL, GraphError, TaskGraph, build_task_graph
from nego.timing import synthesize_priorities

Structure = tuple[frozenset[str], frozenset[tuple[str, str, str]]]  # (selected, connections)


def _threads(software: SoftwareModel, selected: frozenset[str]) -> list[QualId]:
    return sorted(
        (comp, thread.name) for comp in selected for thread in software.contracts[comp].threads
    )


def _key(lit: Literal) -> tuple:
    """The literal as a plain tuple, which the trail builds and hashes for
    every choice it makes."""
    if isinstance(lit, ConnLit):
        return ("conn", lit.client, lit.service, lit.provider)
    if isinstance(lit, MapLit):
        return ("map", lit.component, lit.task, lit.resource)
    return ("sel", lit.component, lit.value)


def _allows(
    order: tuple[QualId, ...],
    precedences: Sequence[PriorityPrecedence],
    nogoods: Sequence[PriorityNogood],
) -> bool:
    ranks = {t: i for i, t in enumerate(order)}
    return not any(p.violated_by(ranks) for p in precedences) and not any(
        ng.pairs_hold(ranks) for ng in nogoods
    )


class ConstraintStore:
    def __init__(self, software: SoftwareModel, platform: PlatformModel, pinned: frozenset[str]):
        for comp in sorted(pinned):
            if comp not in software.contracts:
                raise ModelError(f"pinned component {comp!r} does not exist")
        self._software = software
        self._resources: dict[str, tuple[str, ...]] = {}  # resource type -> names, in platform order
        for res in platform.resources:
            self._resources[res.rtype] = self._resources.get(res.rtype, ()) + (res.name,)
        self._pinned = frozenset(pinned)
        self._constraints: list[Constraint] = []
        self._graphs: dict[Structure, tuple[TaskGraph, TaskGraph] | GraphError] = {}

        # forbidden conjunctions, by index: literal count, literals holding
        # on the trail, and the conjunctions each literal occurs in
        self._size: list[int] = []
        self._holding: list[int] = []
        self._watch: dict[tuple, list[int]] = {}  # keyed by _key(literal)
        self._unselected_watched: list[str] = []  # c of every watched sel[c]=false
        self._counted = 0  # constraints already indexed

        # the trail: connection levels 0..C-1; once the assignment is
        # complete, level C fixes the structure and level C+1+i the
        # resource of task i
        self._conn = ConnectionSearch(connection_candidates(software, self._pinned), software.interfaces)
        self._structure: Structure | None = None
        self._threads: list[QualId] = []
        self._tasks: list[QualId] = []
        self._task_level: dict[QualId, int] = {}  # task -> its index in _tasks
        self._pools: list[tuple[str, ...]] = []
        self._choice: list[int] = []  # resource index per mapped task
        self._orders: Iterator[Configuration] | None = None  # candidates at the current partial
        self._fresh = True

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return tuple(self._constraints)

    def add_constraint(self, constraint: Constraint) -> None:
        if constraint not in self._constraints:
            self._constraints.append(constraint)

    def add_constraints(self, constraints: Sequence[Constraint]) -> None:
        for c in constraints:
            self.add_constraint(c)

    def task_graphs(self, cfg: Configuration) -> tuple[TaskGraph, TaskGraph]:
        """Normal and initialization task graphs of cfg's structure, built
        once while the search is at that structure; a GraphError is raised
        again with the same message."""
        key = (cfg.selected, cfg.connections)
        graphs = self._graphs.get(key)
        if graphs is None:
            try:
                graphs = (
                    build_task_graph(self._software, cfg, NORMAL),
                    build_task_graph(self._software, cfg, INITIALIZATION),
                )
            except GraphError as exc:
                graphs = exc
            self._graphs[key] = graphs
        if isinstance(graphs, GraphError):
            raise graphs.with_traceback(None)
        return graphs

    # --- candidates

    def next_candidate(self) -> Configuration | None:
        """The next configuration compatible with every constraint, or None
        when the space is exhausted."""
        cut = self._count_new_forbids()
        if self._orders is not None:
            candidate = next(self._orders, None)
            if candidate is not None:
                return candidate
            self._orders = None
        forward = self._fresh and not cut
        self._fresh = False
        while self._advance(forward):
            partial = Configuration(
                *self._structure,
                {task: pool[i] for task, pool, i in zip(self._tasks, self._pools, self._choice)},
                (),
            )
            self._orders = self._candidates(partial, self._threads)
            candidate = next(self._orders, None)
            if candidate is not None:
                return candidate
            self._orders = None
            forward = False
        return None

    def _candidates(self, partial: Configuration, threads: list[QualId]) -> Iterator[Configuration]:
        """The baseline order if allowed, then synthesized orders while they
        are new; synthesis reruns only once a new binding constraint is in."""
        precedences: list[PriorityPrecedence] = []
        nogoods: list[PriorityNogood] = []
        seen = 0

        def learn() -> bool:
            nonlocal seen
            fresh_precedences, fresh_nogoods = active_priority_constraints(self._constraints[seen:], partial)
            seen = len(self._constraints)
            precedences.extend(fresh_precedences)
            nogoods.extend(fresh_nogoods)
            return bool(fresh_precedences or fresh_nogoods)

        def with_order(order: tuple[QualId, ...]) -> Configuration:
            return Configuration(partial.selected, partial.connections, partial.mapping, order)

        learn()
        tried: list[tuple[QualId, ...]] = []
        baseline = tuple(threads)
        if _allows(baseline, precedences, nogoods):
            tried.append(baseline)
            yield with_order(baseline)
            learn()
        try:
            graphs = self.task_graphs(partial)
        except GraphError:
            return  # the structure is broken whatever the order; negotiation learns why
        while True:
            order = synthesize_priorities(threads, graphs, precedences, nogoods)
            if order is None or order in tried:
                return
            tried.append(order)
            yield with_order(order)
            if not learn():
                return

    # --- the trail

    def _advance(self, forward: bool) -> bool:
        """Move the trail to the next structural partial that no forbid
        blocks.  With forward False, first abandon the current choice of
        the deepest level.  False when the space is exhausted."""
        conn = self._conn
        while True:
            if forward:
                if self._structure is None:
                    if conn.open():
                        forward = self._choose_connection()
                    else:
                        forward = self._complete()
                elif len(self._choice) < len(self._tasks):
                    self._choice.append(-1)
                    forward = self._choose_resource()
                else:
                    return True
            elif self._choice:
                self._release(self._map_literal())
                forward = self._choose_resource()
            elif self._structure is not None:
                self._uncomplete()
            elif conn.levels:
                self._release(*self._connection_literals())
                conn.retract()
                forward = self._choose_connection()
            else:
                return False

    def _hold(self, *keys: tuple) -> bool:
        """Count the literals as holding, unless that completes a forbid."""
        hits = [k for key in keys for k in self._watch.get(key, ())]
        for k in hits:
            self._holding[k] += 1
        if any(self._holding[k] == self._size[k] for k in hits):
            for k in hits:
                self._holding[k] -= 1
            return False
        return True

    def _release(self, *keys: tuple) -> None:
        for key in keys:
            for k in self._watch.get(key, ()):
                self._holding[k] -= 1

    def _connection_literals(self) -> list[tuple]:
        client, service, provider = self._conn.choice()
        keys = [("conn", client, service, provider)]
        if self._conn.selected_at[provider] == len(self._conn.levels) - 1:
            keys.append(("sel", provider, True))
        return keys

    def _choose_connection(self) -> bool:
        conn = self._conn
        while conn.choose_next():
            if self._hold(*self._connection_literals()):
                return True
            conn.retract()
        return False

    def _unselected_literals(self) -> list[tuple]:
        selected = self._conn.selected_at
        return [("sel", c, False) for c in self._unselected_watched if c not in selected]

    def _complete(self) -> bool:
        """The connection assignment is complete: decide sel[c]=false and
        open the mapping levels, unless a forbid or a task with no
        resource of its type rules the assignment out."""
        if not self._hold(*self._unselected_literals()):
            return False
        selected = frozenset(self._conn.selected_at)
        tasks = sorted(
            ((comp, step.name), step.resource_type)
            for comp in selected
            for thread in self._software.contracts[comp].threads
            for step in thread.tasks()
        )
        pools = [self._resources.get(rtype, ()) for _, rtype in tasks]
        if not all(pools):
            self._release(*self._unselected_literals())
            return False
        self._structure = (selected, self._conn.connections())
        self._threads = _threads(self._software, selected)
        self._tasks = [task for task, _ in tasks]
        self._task_level = {task: i for i, task in enumerate(self._tasks)}
        self._pools = pools
        return True

    def _uncomplete(self) -> None:
        self._graphs.pop(self._structure, None)  # the search never comes back to it
        self._release(*self._unselected_literals())
        self._structure = None
        self._tasks, self._task_level, self._pools = [], {}, []

    def _map_literal(self) -> tuple:
        i = len(self._choice) - 1
        comp, task = self._tasks[i]
        return ("map", comp, task, self._pools[i][self._choice[i]])

    def _choose_resource(self) -> bool:
        i = len(self._choice) - 1
        comp, task = self._tasks[i]
        pool = self._pools[i]
        for index in range(self._choice[i] + 1, len(pool)):
            if self._hold(("map", comp, task, pool[index])):
                self._choice[i] = index
                return True
        self._choice.pop()
        return False

    # --- constraints learned since the last call

    def _depth(self, lit: Literal, connections: dict[tuple[str, str], tuple[str, int]]) -> int | None:
        """Trail level at which the literal came to hold (-1: from the
        start), or None if it does not hold on the trail."""
        if isinstance(lit, ConnLit):
            provider, level = connections.get((lit.client, lit.service), (None, 0))
            return level if provider == lit.provider else None
        if isinstance(lit, SelLit):
            if lit.value:
                return self._conn.selected_at.get(lit.component)
            if self._structure is not None and lit.component not in self._conn.selected_at:
                return len(self._conn.levels)
            return None
        i = self._task_level.get((lit.component, lit.task), len(self._choice))
        if i < len(self._choice) and self._pools[i][self._choice[i]] == lit.resource:
            return len(self._conn.levels) + 1 + i
        return None

    def _count_new_forbids(self) -> bool:
        """Index the forbids learned since the last call and count their
        literals on the trail.  If one of them blocks the trail, cut it back
        to the shallowest level a blocking forbid completes and return
        True."""
        fresh = [c for c in self._constraints[self._counted :] if isinstance(c, ForbidConjunction)]
        self._counted = len(self._constraints)
        if not fresh:
            return False
        connections = {
            (client, service): (options[index], level)
            for level, (client, service, options, index) in enumerate(self._conn.levels)
        }
        cut: int | None = None
        for forbid in fresh:
            k = len(self._size)
            depths = [self._depth(lit, connections) for lit in forbid.literals]
            self._size.append(len(depths))
            self._holding.append(sum(d is not None for d in depths))
            for lit in forbid.literals:
                self._watch.setdefault(_key(lit), []).append(k)
                if isinstance(lit, SelLit) and not lit.value and lit.component not in self._unselected_watched:
                    self._unselected_watched.append(lit.component)
            if None not in depths:
                level = max(depths, default=-1)
                cut = level if cut is None else min(cut, level)
        if cut is None:
            return False
        self._cut_back(cut)
        return True

    def _cut_back(self, level: int) -> None:
        """Undo every level deeper than `level`, which stays the deepest."""
        self._orders = None
        conn = self._conn
        while self._choice and len(conn.levels) + len(self._choice) > level:
            self._release(self._map_literal())
            self._choice.pop()
        if self._structure is not None and len(conn.levels) > level:
            self._uncomplete()
        while len(conn.levels) - 1 > level:
            self._release(*self._connection_literals())
            conn.retract()
            conn.close()

    def dump(self) -> str:
        lines = [f"pinned: {' '.join(sorted(self._pinned))}"]
        summary = connection_candidates(self._software, self._pinned)
        lines.extend(render_candidates(summary).splitlines())
        for comp in sorted(summary.requirements):
            names = " ".join(qual_str(t) for t in _threads(self._software, frozenset({comp})))
            if names:
                lines.append(f"threads {comp}: {names}")
        lines.append(f"constraints: {len(self._constraints)}")
        lines.extend("  " + constraint_str(c) for c in sort_constraints(self._constraints))
        return "\n".join(lines) + "\n"
