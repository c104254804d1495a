"""Configuration-space exploration under accumulated constraints.

The store walks the space depth first on one trail that keeps its place
between calls to `next_candidate`, so each call resumes where the last one
stopped.  Candidates come out in a fixed order:

* connection assignments: the smallest pending (client, service) pair
  first, providers in name order, skipping the client itself and any
  provider already serving as many clients as its interface allows, the
  selection growing with each chosen provider (`deps.ConnectionSearch`);
* task mappings: tasks in name order, resources in platform order;
* priority orders at each structural partial: the name-ordered baseline
  if the priority nogoods that apply there allow it, then each order
  `synthesize_priorities` finds under them.  The seed order is computed
  once per partial; after each learned nogood that applies at the
  partial, synthesis searches again under every nogood that applies
  there.  The partial is left as soon as synthesis finds nothing new, or
  no new nogood applies.  Synthesis is a complete backtracking search,
  and every rejection excludes its candidate, so no order that the
  constraints allow is skipped.

Every learned constraint is counted on the trail.  Literals are the tuples
of `constraints.py`, and the trail builds the same tuples for its choices,
so a learned literal is looked up as it is: each literal keeps the
constraints it occurs in (a forbid's literals, a nogood's context), each
constraint counts its literals that hold on the trail, and the count is
kept as the trail moves.

The trail opens a record only where the search has a choice, and a
decision with no alternative joins the record of the choice before it, as
an implied literal joins the current decision level of a SAT solver.  A
connection record holds a provider's choice and the pairs decided after
it while the smallest pending pair has at most one provider option: for
each, the connection and the sel[c]=true of a provider it selects first.
`deps.ConnectionSearch` keeps one level per pair and decides the run of
forced pairs after a choice in one call; the store builds the record's
literals once that run is decided, and counts how many levels each record
holds.  The record that completes the structure holds sel[c]=false of
every component of the software left unselected and the mapping of every
task with one resource of its type.  Each task with several resources
then has a record of its own.  A forbid is checked at the record that
decides its last literal: a choice whose record completes its count is
refused, and so is a choice after which a forced pair finds no provider
or its one provider full.  Refusing a forced decision is refusing the
choice before it, since it has no alternative.
Connection-only forbids therefore prune connection choices before any
mapping is tried, and forbids with map literals prune at the record that
decides the last of them.  A nogood whose count is full applies at the
current partial; it never refuses a choice.  Backtracking and cutting pop
a record, release its literals and undo every connection level it holds.
Constraints learned since the last call are counted against the records
when the search resumes, each literal at the record that holds it.  A
literal no choice decides holds at -1 if it holds anyway (sel[c]=true of
a pinned c, sel[c]=false of a component the software lacks) and does not
hold otherwise.  The search then backs out of the shallowest record a
learned forbid blocks: the deepest record among its literals.  Otherwise
the partial's orders go on under the learned nogoods whose count is full.

The trail holds one selection, one assignment and one mapping, undone on
backtrack: its state grows with the number of records, not with their
product, and deep systems need no recursion.  Nothing is proposed twice:
the trail never returns to a partial it has left, and at one partial only
new orders are proposed.

Task graphs read only the selection and the connections; `task_graphs`
builds both modes once per structure and serves the store and
`negotiate` alike.  Timing contexts read the mapping too;
`timing_contexts` builds both modes once per partial, shared by every
order tried there, and drops them when the trail moves to the next
partial.
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
    SelLit,
)
from nego.deps import ConnectionSearch, connection_candidates
from nego.dsl import SoftwareModel
from nego.model import Configuration, PlatformModel, QualId
from nego.taskgraph import INITIALIZATION, NORMAL, GraphError, TaskGraph, build_task_graph
from nego.timing import TimingContext, seed_order, synthesize_priorities

Structure = tuple[frozenset[str], frozenset[tuple[str, str, str]]]  # (selected, connections)


def _threads(software: SoftwareModel, selected: frozenset[str]) -> list[QualId]:
    return sorted(
        (comp, thread.name) for comp in selected for thread in software.contracts[comp].threads
    )


def _allows(order: tuple[QualId, ...], nogoods: Sequence[PriorityNogood]) -> bool:
    ranks = {t: i for i, t in enumerate(order)}
    return not any(ng.pairs_hold(ranks) for ng in nogoods)


class ConstraintStore:
    def __init__(self, software: SoftwareModel, platform: PlatformModel, pinned: frozenset[str]):
        self._software = software
        self._platform = platform
        self._resources: dict[str, tuple[str, ...]] = {}  # resource type -> names, in platform order
        for res in platform.resources:
            self._resources[res.rtype] = self._resources.get(res.rtype, ()) + (res.name,)
        self._pinned = frozenset(pinned)
        self._constraints: list[Constraint] = []  # in the order learned
        self._known: set[Constraint] = set()
        self._graphs: dict[Structure, tuple[TaskGraph, TaskGraph] | tuple[type[GraphError], tuple]] = {}
        # the timing contexts of both modes and the (selected, connections,
        # mapping) they were built for
        self._timing: tuple[tuple, tuple[TimingContext, TimingContext]] | None = None

        # learned constraints, by their index in _constraints: literal count
        # (a nogood's context), literals holding on the trail, and the
        # constraints each literal occurs in
        self._size: list[int] = []
        self._holding: list[int] = []
        self._watch: dict[Literal, list[int]] = {}
        self._nogoods: list[int] = []  # indices of the priority nogoods
        self._applying: list[PriorityNogood] = []  # the last call's new nogoods with a full count

        # the trail: one record per choice, _held[record] listing the
        # literals it made hold.  Connection records come first, record r
        # holding _levels[r] connection levels: a choice and the pairs with
        # one provider option decided after it.  Once the assignment is
        # complete, one record fixes the structure and maps every task with
        # one resource, then one record per task with several resources.
        self._held: list[list[Literal]] = []
        self._levels: list[int] = []
        self._conn = ConnectionSearch(connection_candidates(software, self._pinned), software.interfaces)
        self._structure: Structure | None = None
        self._threads: list[QualId] = []
        self._tasks: list[QualId] = []  # every task of the structure, in name order
        self._pools: list[tuple[str, ...]] = []
        self._choice: list[int] = []  # resource index per task
        self._branching: list[int] = []  # the tasks with several resources, by position
        self._mapped = 0  # how many of them have a record
        self._orders: Iterator[Configuration] = iter(())  # candidates at the current partial
        self._fresh = True

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return tuple(self._constraints)

    def add_constraint(self, constraint: Constraint) -> None:
        if constraint not in self._known:
            self._known.add(constraint)
            self._constraints.append(constraint)

    def task_graphs(self, cfg: Configuration) -> tuple[TaskGraph, TaskGraph]:
        """Normal and initialization task graphs of cfg's structure, built
        once while the search is at that structure; a GraphError is raised
        again, as a fresh error of the same class and message: a kept error
        would hold the traceback of each raise, whose frames hold the store,
        so the store would be freed only by the cyclic collector."""
        key = (cfg.selected, cfg.connections)
        graphs = self._graphs.get(key)
        if graphs is None:
            try:
                graphs = (
                    build_task_graph(self._software, cfg, NORMAL),
                    build_task_graph(self._software, cfg, INITIALIZATION),
                )
            except GraphError as exc:
                graphs = (type(exc), exc.args)
            self._graphs[key] = graphs
        if isinstance(graphs[0], type):
            raise graphs[0](*graphs[1])
        return graphs

    def timing_contexts(self, cfg: Configuration) -> tuple[TimingContext, TimingContext]:
        """Normal and initialization timing contexts of cfg's partial (its
        structure and mapping), built once while the search is at that
        partial and shared by every priority order tried there."""
        key = (cfg.selected, cfg.connections, cfg.mapping)
        if self._timing is None or self._timing[0] != key:
            normal, init = self.task_graphs(cfg)
            contexts = (TimingContext(normal, cfg, self._platform), TimingContext(init, cfg, self._platform))
            self._timing = (key, contexts)
        return self._timing[1]

    # --- candidates

    def next_candidate(self) -> Configuration | None:
        """The next configuration compatible with every constraint, or None
        when the space is exhausted."""
        cut = self._count_new()
        forward, self._fresh = self._fresh and not cut, False
        while (candidate := next(self._orders, None)) is None:
            if not self._advance(forward):
                return None
            forward = False
            partial = Configuration(
                *self._structure,
                {task: pool[i] for task, pool, i in zip(self._tasks, self._pools, self._choice)},
                (),
            )
            self._timing = None  # the contexts of the partial the trail left
            self._orders = self._candidates(partial, self._threads)
        return candidate

    def _candidates(self, partial: Configuration, threads: list[QualId]) -> Iterator[Configuration]:
        """The baseline order if allowed, then synthesized orders while they
        are new; synthesis runs again only once a new nogood applies here."""

        def with_order(order: tuple[QualId, ...]) -> Configuration:
            return Configuration(partial.selected, partial.connections, partial.mapping, order)

        constraints, size, holding = self._constraints, self._size, self._holding
        nogoods = [constraints[k] for k in self._nogoods if holding[k] == size[k]]
        tried: list[tuple[QualId, ...]] = []
        baseline = tuple(threads)
        if _allows(baseline, nogoods):
            tried.append(baseline)
            yield with_order(baseline)
            nogoods += self._applying
        try:
            reverse = seed_order(threads, self.task_graphs(partial))
        except GraphError:
            return  # the structure is broken whatever the order; negotiation learns why
        while True:
            order = synthesize_priorities(reverse, nogoods)
            if order is None or order in tried:
                return
            tried.append(order)
            yield with_order(order)
            if not self._applying:
                return
            nogoods += self._applying

    # --- the trail

    def _advance(self, forward: bool) -> bool:
        """Move the trail to the next structural partial that no forbid
        blocks.  With forward False, first abandon the current choice of
        the deepest record.  False when the space is exhausted."""
        conn = self._conn
        while True:
            if forward:
                if self._structure is None:
                    if conn.open():
                        forward = self._choose_connection()
                    else:
                        forward = self._complete()
                elif self._mapped < len(self._branching):
                    self._choice[self._branching[self._mapped]] = -1
                    self._mapped += 1
                    forward = self._choose_resource()
                else:
                    return True
            elif not self._held:
                return False
            else:
                self._release(*self._held.pop())
                if self._mapped:
                    forward = self._choose_resource()
                elif self._structure is not None:
                    self._uncomplete()
                else:
                    self._retract(self._levels.pop())
                    forward = self._choose_connection()

    def _hold(self, literals: list[Literal]) -> bool:
        """Count the literals as holding and record them as the next record,
        unless that completes a forbid."""
        holding, size, constraints = self._holding, self._size, self._constraints
        hits = [k for lit in literals for k in self._watch.get(lit, ())]
        for k in hits:
            holding[k] += 1
        for k in hits:
            if holding[k] == size[k] and isinstance(constraints[k], ForbidConjunction):
                self._release(*literals)
                return False
        self._held.append(literals)
        return True

    def _release(self, *literals: Literal) -> None:
        for lit in literals:
            for k in self._watch.get(lit, ()):
                self._holding[k] -= 1

    def _choose_connection(self) -> bool:
        """Choose the top connection level's next provider, then decide the
        smallest pending pair while it has at most one provider option, all
        in one record.  A forbid the record completes, or a forced pair
        left without a provider, refuses the first choice.  False when the
        level has no provider left: it is closed."""
        conn = self._conn
        while conn.choose_next():
            first = len(conn.levels) - 1
            if conn.choose_forced() and self._hold(self._chosen(first)):
                self._levels.append(len(conn.levels) - first)
                return True
            self._retract(len(conn.levels) - first)
        return False

    def _chosen(self, first: int) -> list[Literal]:
        """The literals of the choices of the connection levels from `first`
        up: per level, the connection and the sel[c]=true of a provider it
        selects."""
        levels, selected_at = self._conn.levels, self._conn.selected_at
        literals: list[Literal] = []
        for depth in range(first, len(levels)):
            client, service, options, index = levels[depth]
            provider = options[index]
            literals.append(ConnLit(client, service, provider))
            if selected_at[provider] == depth:
                literals.append(SelLit(provider, True))
        return literals

    def _retract(self, levels: int) -> None:
        """Undo the choices of the top `levels` connection levels and close
        all but the lowest of them."""
        for _ in range(levels - 1):
            self._conn.retract()
            self._conn.close()
        self._conn.retract()

    def _complete(self) -> bool:
        """The connection assignment is complete: decide sel[c]=false of
        every component it leaves unselected, map every task with one
        resource of its type and open a record per task with several,
        unless a task with no resource of its type or a forbid rules the
        assignment out."""
        selected = frozenset(self._conn.selected_at)
        tasks = sorted(
            ((comp, step.name), step.resource_type)
            for comp in selected
            for thread in self._software.contracts[comp].threads
            for step in thread.tasks()
        )
        pools = [self._resources.get(rtype, ()) for _, rtype in tasks]
        if not all(pools):
            return False
        literals = [SelLit(c, False) for c in self._software.contracts if c not in selected]
        branching = []
        for i, pool in enumerate(pools):
            if len(pool) > 1:
                branching.append(i)
            else:
                literals.append(MapLit(*tasks[i][0], pool[0]))
        if not self._hold(literals):
            return False
        self._structure = (selected, self._conn.connections())
        self._threads = _threads(self._software, selected)
        self._tasks = [task for task, _ in tasks]
        self._pools = pools
        self._choice = [0] * len(pools)
        self._branching = branching
        return True

    def _uncomplete(self) -> None:
        self._graphs.pop(self._structure, None)  # the search never comes back to it
        self._structure = None
        self._tasks, self._pools = [], []

    def _choose_resource(self) -> bool:
        """Choose the next resource of the deepest task with a record; when
        none is left, drop its record and return False."""
        i = self._branching[self._mapped - 1]
        comp, task = self._tasks[i]
        pool = self._pools[i]
        for index in range(self._choice[i] + 1, len(pool)):
            if self._hold([MapLit(comp, task, pool[index])]):
                self._choice[i] = index
                return True
        self._mapped -= 1
        return False

    # --- constraints learned since the last call

    def _count_new(self) -> bool:
        """Index the constraints learned since the last call and count their
        literals on the trail; keep in `_applying` the new nogoods whose
        count is full.  If a new forbid blocks the trail, cut it back to the
        shallowest level a blocking forbid completes and return True."""
        start = len(self._size)
        self._applying = []
        if start == len(self._constraints):
            return False
        trail = {lit: level for level, held in enumerate(self._held) for lit in held}
        cut: int | None = None
        for k, constraint in enumerate(self._constraints[start:], start):
            if isinstance(constraint, ForbidConjunction):
                literals = constraint.literals
            else:
                literals = constraint.context
                self._nogoods.append(k)
            depths = []
            for lit in literals:
                self._watch.setdefault(lit, []).append(k)
                if lit in trail:
                    depths.append(trail[lit])
                elif self._undecided_holds(lit):
                    depths.append(-1)
            self._size.append(len(literals))
            self._holding.append(len(depths))
            if len(depths) < len(literals):
                continue
            if isinstance(constraint, ForbidConjunction):
                level = max(depths, default=-1)
                cut = level if cut is None else min(cut, level)
            else:
                self._applying.append(constraint)
        if cut is None:
            return False
        self._cut_back(cut)
        return True

    def _undecided_holds(self, lit: Literal) -> bool:
        """Whether lit holds though no choice decides it: sel[c]=true of a
        pinned c, or sel[c]=false of a component the software lacks."""
        return lit[0] == "sel" and (lit[1] in self._pinned if lit[2] else lit[1] not in self._software.contracts)

    def _cut_back(self, level: int) -> None:
        """Undo every record deeper than `level`, which stays the deepest."""
        self._orders = iter(())
        while len(self._held) - 1 > level:
            self._release(*self._held.pop())
            if self._mapped:
                self._mapped -= 1
            elif self._structure is not None:
                self._uncomplete()
            else:
                self._retract(self._levels.pop())
                self._conn.close()
