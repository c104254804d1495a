import gc
import random

import pytest

import nego.space
from nego.constraints import (
    ConnLit,
    ForbidConjunction,
    MapLit,
    PriorityNogood,
    PriorityPrecedence,
    SelLit,
    configuration_ok,
)
from nego.deps import connection_candidates
from nego.dsl import load_software_model
from nego.negotiation import negotiate
from nego.model import ModelError, SystemModel, pinned_components, parse_platform
from nego.randsys import random_software_system
from nego.space import ConstraintStore
from nego.taskgraph import NORMAL, GraphError, build_task_graph
from nego.timing import BUSY_WINDOW, SINGLE_BLOCKING, TimingContext, check_timing

from conftest import (
    ACCEPTED_ORDER,
    CONNS_LANE_ON_O1,
    CONNS_LANE_ON_O2,
    LEX_ORDER,
    POST_MAPPING,
    POST_SELECTED,
)
from oracles import partials
from systems import NogoodProbe, deep, indep, shared


def post_store(software_post, platform):
    return ConstraintStore(software_post, platform, pinned_components(software_post))


def test_post_update_pinned(software_pre, software_post):
    assert pinned_components(software_pre) == frozenset({"P"})
    assert pinned_components(software_post) == frozenset({"L", "P"})


def test_first_candidate(software_post, platform):
    store = post_store(software_post, platform)
    cfg = store.next_candidate()
    assert cfg.selected == POST_SELECTED
    assert cfg.connections == CONNS_LANE_ON_O1
    assert dict(cfg.mapping) == POST_MAPPING
    assert cfg.priorities == LEX_ORDER


def test_overload_forbid_skips_first_assignment(software_post, platform):
    store = post_store(software_post, platform)
    first = store.next_candidate()
    graph = build_task_graph(software_post, first, NORMAL)
    report = check_timing(TimingContext(graph, first, platform), first, SINGLE_BLOCKING)
    for c in report.constraints:
        store.add_constraint(c)
    second = store.next_candidate()
    assert second.connections == CONNS_LANE_ON_O2
    assert second.priorities == LEX_ORDER


def test_priority_feedback_reaches_synthesis(software_post, platform):
    store = post_store(software_post, platform)
    cfg1 = store.next_candidate()
    for c in check_timing(
        TimingContext(build_task_graph(software_post, cfg1, NORMAL), cfg1, platform), cfg1, SINGLE_BLOCKING
    ).constraints:
        store.add_constraint(c)
    cfg2 = store.next_candidate()
    for c in check_timing(
        TimingContext(build_task_graph(software_post, cfg2, NORMAL), cfg2, platform), cfg2, SINGLE_BLOCKING
    ).constraints:
        store.add_constraint(c)
    cfg3 = store.next_candidate()
    assert cfg3.connections == CONNS_LANE_ON_O2
    assert cfg3.priorities == ACCEPTED_ORDER


def test_busy_window_feedback_exhausts(software_post, platform):
    store = post_store(software_post, platform)
    seen = 0
    while True:
        cfg = store.next_candidate()
        if cfg is None:
            break
        seen += 1
        report = check_timing(
            TimingContext(build_task_graph(software_post, cfg, NORMAL), cfg, platform), cfg, BUSY_WINDOW
        )
        if report.ok:
            pytest.fail("busy-window run is expected to reject every candidate")
        for c in report.constraints:
            store.add_constraint(c)
    assert seen == 3


def test_direct_connection_forbid_prunes_assignment(software_post, platform):
    store = post_store(software_post, platform)
    store.add_constraint(
        ForbidConjunction(frozenset({ConnLit("L", "object_recognition", "O1")}))
    )
    cfg = store.next_candidate()
    assert cfg.connections == CONNS_LANE_ON_O2


def test_empty_forbid_empties_space(software_post, platform):
    store = post_store(software_post, platform)
    store.add_constraint(ForbidConjunction(frozenset()))
    assert store.next_candidate() is None


def test_precedence_respected(software_post, platform):
    store = post_store(software_post, platform)
    store.add_constraint(
        PriorityPrecedence(("T", "trajectory_calculation_init"), ("P", "init"))
    )
    cfg = store.next_candidate()
    order = cfg.priorities
    assert order.index(("T", "trajectory_calculation_init")) < order.index(("P", "init"))


def test_self_precedence_constrains_nothing(software_post, platform):
    """A thread never outranks itself, so the nogood a self-precedence
    makes never holds, and synthesis ignores it too."""
    demote_first = PriorityNogood(frozenset(), frozenset({(LEX_ORDER[0], LEX_ORDER[1])}))
    plain = post_store(software_post, platform)
    plain.add_constraint(demote_first)
    store = post_store(software_post, platform)
    store.add_constraint(PriorityPrecedence(("P", "init"), ("P", "init")))
    store.add_constraint(demote_first)
    cfg = store.next_candidate()
    assert cfg is not None and configuration_ok(cfg, store.constraints)
    assert cfg.priorities != LEX_ORDER  # synthesized, not the baseline
    assert cfg == plain.next_candidate()


def test_duplicate_constraints_collapse(software_post, platform):
    # the same object again, or an equal one, keeps the first in its place
    store = post_store(software_post, platform)
    c = ForbidConjunction(frozenset({ConnLit("L", "object_recognition", "O1")}))
    d = PriorityPrecedence(("T", "trajectory_calculation_init"), ("P", "init"))
    store.add_constraint(c)
    store.add_constraint(c)
    store.add_constraint(d)
    store.add_constraint(ForbidConjunction(frozenset({ConnLit("L", "object_recognition", "O1")})))
    store.add_constraint(PriorityPrecedence(("T", "trajectory_calculation_init"), ("P", "init")))
    assert store.constraints == (c, d)


def test_unknown_pinned_component(software_post, platform):
    with pytest.raises(ModelError):
        ConstraintStore(software_post, platform, frozenset({"GHOST"}))


def test_first_missing_pinned_component_is_named(software_post, platform):
    pinned = frozenset({"ZZ", "P", "GHOST"})
    message = "^pinned component 'GHOST' does not exist$"
    with pytest.raises(ModelError, match=message):
        connection_candidates(software_post, pinned)
    with pytest.raises(ModelError, match=message):
        ConstraintStore(software_post, platform, pinned)


def test_no_candidate_repeats():
    texts = [
        "component CA threads thread ta on time (period=10 jitter=0) task a onto CPU wcet=1 bcet=1",
        "component CB threads thread tb on time (period=8 jitter=0) task b onto CPU wcet=1 bcet=1 "
        "timings timing 4 tb",
    ]
    software = load_software_model(texts, "")
    platform = parse_platform("resource R1 type CPU")
    store = ConstraintStore(software, platform, pinned_components(software))
    seen = []
    while True:
        cfg = store.next_candidate()
        if cfg is None:
            break
        seen.append(cfg)
        assert len(seen) < 20, "small space must exhaust quickly"
    prints = [
        (c.selected, c.connections, tuple(sorted(c.mapping.items())), c.priorities)
        for c in seen
    ]
    assert len(prints) == len(set(prints))
    # two threads on one resource: exactly the two priority orders
    assert {cfg.priorities for cfg in seen} == {
        (("CA", "ta"), ("CB", "tb")),
        (("CB", "tb"), ("CA", "ta")),
    }


def test_nogood_filtered_by_context(software_post, platform):
    # a nogood whose context names the other assignment never blocks this one
    store = post_store(software_post, platform)
    ng = PriorityNogood(
        frozenset({ConnLit("L", "object_recognition", "O2")}),
        frozenset({(LEX_ORDER[0], LEX_ORDER[1])}),
    )
    store.add_constraint(ng)
    cfg = store.next_candidate()
    assert cfg.connections == CONNS_LANE_ON_O1
    assert cfg.priorities == LEX_ORDER


def _partial_key(cfg):
    return cfg.selected, cfg.connections, tuple(sorted(cfg.mapping.items()))


def _literals(cfg, software):
    """Every literal that holds on cfg: its connections, its mapping and the
    selection of each component of the model, true or false."""
    literals = [ConnLit(*c) for c in sorted(cfg.connections)]
    literals += [MapLit(*task, res) for task, res in sorted(cfg.mapping.items())]
    literals += [SelLit(c, c in cfg.selected) for c in software.component_names()]
    return literals


def _drawn_literals(rng, cfg, software, space):
    """The literals of cfg (sel[c]=true and sel[c]=false included), and half
    the time those of another point of the space, which need not hold on
    the trail."""
    literals = _literals(cfg, software)
    if rng.random() < 0.5:
        literals += _literals(rng.choice(space), software)
    return literals


def _walk_in_store_order(system, rng):
    """Learn random forbids over drawn literals between calls, forced and
    branching ones alike.  Each call proposes the partial it was at, while
    the constraints held at that call allow it, or else the first partial
    after it in the store's order that they leave open."""
    software, platform = system.software, system.platform
    space = list(partials(software, platform))
    store = ConstraintStore(software, platform, pinned_components(software))
    at = -1  # the position in space of the partial last proposed
    while True:
        constraints = store.constraints
        cfg = store.next_candidate()
        if cfg is None or at < 0 or _partial_key(cfg) != _partial_key(space[at]):
            at = next((k for k in range(at + 1, len(space)) if configuration_ok(space[k], constraints)), len(space))
            if cfg is None:
                assert at == len(space), space[at]
                return
            assert at < len(space) and _partial_key(space[at]) == _partial_key(cfg), cfg
        assert configuration_ok(cfg, constraints), cfg
        literals = _drawn_literals(rng, cfg, software, space)
        if rng.random() < 0.7:
            k = rng.randint(1, min(3, len(literals)))
            store.add_constraint(ForbidConjunction(frozenset(rng.sample(literals, k))))


def test_forbids_learned_between_calls_cut_exactly():
    for seed in range(200):
        _walk_in_store_order(random_software_system(random.Random(seed)), random.Random(seed))


# A's choice for v and B's forced pair for u, decided after it, share a
# record, which a cut back to A's choice for s undoes
GPU_BETWEEN_CPUS = [
    "component A services requires s requires v threads thread t on time (period=10 jitter=0) "
    "task a1 onto CPU wcet=1 bcet=1 task a2 onto GPU wcet=1 bcet=1 task a3 onto CPU wcet=1 bcet=1",
    "component B services provides s requires u threads thread e on RPC s.m() "
    "task b1 onto GPU wcet=1 bcet=1 task b2 onto CPU wcet=1 bcet=1",
    "component C services provides s threads thread e on RPC s.m() task c onto GPU wcet=1 bcet=1",
    "component D services provides v threads thread e on RPC v.m() task d onto CPU wcet=1 bcet=1",
    "component E services provides v threads thread e on RPC v.m() task e onto GPU wcet=1 bcet=1",
    "component X services provides u threads thread e on RPC u.m() task x onto CPU wcet=1 bcet=1",
]
# B and X require s, whose one provider P takes one client: when A is
# served t by X, X's forced pair finds P full, so that choice is refused
# and only A -> t -> Y is left
ONE_CLIENT_FOR_ONE_PROVIDER = [
    "component A services requires t threads thread ta on time (period=10 jitter=0) "
    "task a onto CPU wcet=1 bcet=1",
    "component B services requires s threads thread tb on time (period=10 jitter=0) "
    "task b onto CPU wcet=1 bcet=1",
    "component P services provides s threads thread e on RPC s.m() task p onto CPU wcet=1 bcet=1",
    "component X services provides t requires s threads thread e on RPC t.m() task x onto CPU wcet=1 bcet=1",
    "component Y services provides t threads thread e on RPC t.m() task y onto CPU wcet=1 bcet=1",
]


@pytest.mark.parametrize(
    "texts, repository, platform, structures, size",
    [
        (
            GPU_BETWEEN_CPUS,
            "service s method m () service u method m () service v method m ()",
            "resource R1 type CPU\nresource G1 type GPU\nresource R2 type CPU\n",
            [
                {("A", "s", "B"), ("A", "v", "D"), ("B", "u", "X")},
                {("A", "s", "B"), ("A", "v", "E"), ("B", "u", "X")},
                {("A", "s", "C"), ("A", "v", "D")},
                {("A", "s", "C"), ("A", "v", "E")},
            ],
            32 + 16 + 8 + 4,
        ),
        (
            ONE_CLIENT_FOR_ONE_PROVIDER,
            "service s max_clients 1 method m () service t method m ()",
            "resource R1 type CPU\nresource R2 type CPU\n",
            [{("A", "t", "Y"), ("B", "s", "P")}],
            16,
        ),
    ],
    ids=["gpu-between-cpus", "full-forced-provider"],
)
def test_forced_choices_keep_the_store_order(texts, repository, platform, structures, size):
    # forced tasks sit between branching ones in name order, a forced
    # connection follows a choice of provider, or a forced provider is full
    system = SystemModel(load_software_model(texts, repository), parse_platform(platform))
    space = list(partials(system.software, system.platform))
    assert [set(c) for c in dict.fromkeys(p.connections for p in space)] == structures
    assert len(space) == size
    for seed in range(100):
        _walk_in_store_order(system, random.Random(seed))


@pytest.mark.parametrize("n", [10, 200])
def test_forced_choices_open_no_record_of_their_own(n):
    # every connection of deep(n) has one provider and its one CPU takes
    # every task: one record for the connections and one for the structure
    # and its mapping; indep(n, 1, ...) has no connection at all
    for system, records in ((deep(n), 2), (indep(n, 1, 1, 8, 20, 2), 1)):
        store = ConstraintStore(system.software, system.platform, pinned_components(system.software))
        assert store.next_candidate() is not None
        assert len(store._held) == records


def test_nogoods_learned_between_calls_apply_by_their_counts(monkeypatch):
    # Nogoods over random contexts, drawn like the forbids above, are
    # learned between calls, with a forbid now and then to move the trail:
    # at every partial the store hands synthesis exactly the nogoods whose
    # context holds there.
    probe = NogoodProbe(monkeypatch)
    for seed in range(200):
        rng = random.Random(seed)
        system = random_software_system(random.Random(seed))
        software, platform = system.software, system.platform
        space = list(partials(software, platform))
        store = ConstraintStore(software, platform, pinned_components(software))
        while len(store.constraints) < 40 and (cfg := store.next_candidate()) is not None:
            literals = _drawn_literals(rng, cfg, software, space)
            order = cfg.priorities
            if len(order) >= 2:
                hi, lo = sorted(rng.sample(range(len(order)), 2))
                context = frozenset(rng.sample(literals, rng.randint(0, min(3, len(literals)))))
                store.add_constraint(PriorityNogood(context, frozenset({(order[hi], order[lo])})))
            if rng.random() < 0.3:
                k = rng.randint(1, min(3, len(literals)))
                store.add_constraint(ForbidConjunction(frozenset(rng.sample(literals, k))))
    assert probe.checks["applied"] > 500 and probe.checks["none"] > 150, probe.checks


def _proposals(store, learn=()):
    """Every candidate's (connections, mapping) in order, the constraints in
    `learn` added after the first one."""
    out = []
    while (cfg := store.next_candidate()) is not None:
        if not out:
            for c in learn:
                store.add_constraint(c)
        out.append((cfg.connections, tuple(sorted(cfg.mapping.items()))))
    return out


CHOICE_OF_PROVIDERS = [
    "component A services requires s threads thread t on time (period=10 jitter=0) "
    "task a onto CPU wcet=1 bcet=1",
    "component B services provides s threads thread e on RPC s.m() task b onto {b} wcet=1 bcet=1",
    "component C services provides s threads thread e on RPC s.m() task c onto CPU wcet=1 bcet=1",
    "component X services provides u threads thread e on RPC u.m() task x onto CPU wcet=1 bcet=1",
]


def _providers_store(b_type="CPU", resources=("R1",)):
    texts = [t.replace("{b}", b_type) for t in CHOICE_OF_PROVIDERS]
    software = load_software_model(texts, "service s method m () service u method m ()")
    platform = parse_platform("".join(f"resource {r} type CPU\n" for r in resources))
    return ConstraintStore(software, platform, pinned_components(software))


def test_task_type_missing_from_platform_rules_out_its_structures():
    # B's task needs a GPU, which the platform lacks: only A -> s -> C
    # completes, and a pinned component that needs one empties the space
    via_c = frozenset({("A", "s", "C")})
    assert {conns for conns, _ in _proposals(_providers_store("GPU"))} == {via_c}
    assert {conns for conns, _ in _proposals(_providers_store())} == {
        frozenset({("A", "s", "B")}),
        via_c,
    }
    texts = ["component A threads thread t on time (period=10 jitter=0) task a onto GPU wcet=1 bcet=1"]
    software = load_software_model(texts, "")
    store = ConstraintStore(software, parse_platform("resource R1 type CPU"), pinned_components(software))
    assert store.next_candidate() is None


def test_learned_unselected_forbid_refuses_a_later_completion():
    # X provides a service nobody requires, so sel[X]=false holds on every
    # structure.  Learned while the trail is at A -> s -> B, the forbid is
    # one literal short there, and completing A -> s -> C is refused.
    forbid = ForbidConjunction(frozenset({SelLit("X", False), ConnLit("A", "s", "C")}))
    got = _proposals(_providers_store(resources=("R1", "R2")), [forbid])
    assert [conns for conns, _ in got] == [frozenset({("A", "s", "B")})] * 4
    assert len(set(got)) == 4
    # a forbid of sel[X]=false alone blocks the trail where it is learned
    alone = ForbidConjunction(frozenset({SelLit("X", False)}))
    assert len(_proposals(_providers_store(resources=("R1", "R2")), [alone])) == 1


def test_forbid_of_a_component_the_software_lacks():
    # no choice decides sel[ghost]: it is never selected, so sel[ghost]=false
    # holds everywhere and sel[ghost]=true nowhere, whether the forbid is
    # learned before the first candidate or after it
    plain = _proposals(_providers_store())
    via_b = [p for p in plain if p[0] == frozenset({("A", "s", "B")})]
    ghost_false, ghost_true = SelLit("ghost", False), SelLit("ghost", True)
    cases = [
        ({ghost_false}, []),
        ({ghost_true}, plain),
        ({ghost_false, ConnLit("A", "s", "C")}, via_b),
        ({ghost_true, ConnLit("A", "s", "B")}, plain),
    ]
    for literals, expected in cases:
        forbid = ForbidConjunction(frozenset(literals))
        before = _providers_store()
        before.add_constraint(forbid)
        assert _proposals(before) == expected
        # learned after the first candidate, it cannot take that one back
        assert _proposals(_providers_store(), [forbid]) == (expected or plain[:1])


def test_learned_forbids_that_do_not_hold_cut_nothing():
    # sel[C]=true, sel[B]=false, and map literals of the other resource or
    # of a task off the structure do not hold at the first candidate:
    # learning them there cuts nothing, and they still refuse what they
    # forbid later
    store = _providers_store(resources=("R1", "R2"))
    plain = _proposals(_providers_store(resources=("R1", "R2")))
    forbids = [
        ForbidConjunction(frozenset({SelLit("C", True), MapLit("A", "a", "R2")})),
        ForbidConjunction(frozenset({MapLit("C", "c", "R1"), ConnLit("A", "s", "C")})),
        ForbidConjunction(frozenset({SelLit("B", False), MapLit("C", "c", "R2"), MapLit("A", "a", "R1")})),
    ]
    via_b, via_c = frozenset({("A", "s", "B")}), frozenset({("A", "s", "C")})
    assert [conns for conns, _ in plain] == [via_b] * 4 + [via_c] * 4
    assert _proposals(store, forbids) == plain[:4]  # together they forbid every A -> s -> C partial


def test_task_graphs_are_cached_with_their_error(monkeypatch):
    texts = [
        "component A services requires s threads thread t on time (period=10 jitter=0) "
        "task a onto CPU wcet=1 bcet=1 RPC s.m()",
        "component B services provides s threads thread u on time (period=10 jitter=0) "
        "task b onto CPU wcet=1 bcet=1",
    ]
    software = load_software_model(texts, "service s method m ()")
    store = ConstraintStore(software, parse_platform("resource R1 type CPU"), pinned_components(software))
    builds = []

    def counting(software, cfg, mode):
        builds.append(mode)
        return build_task_graph(software, cfg, mode)

    monkeypatch.setattr(nego.space, "build_task_graph", counting)
    cfg = store.next_candidate()
    messages = []
    for _ in range(2):
        with pytest.raises(GraphError) as info:
            store.task_graphs(cfg)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == "chain A.t: provider 'B' has no entry thread for s.m"
    assert builds == [NORMAL]


def test_a_structural_rejection_leaves_no_reference_cycle():
    # shared(4, 2) meets structures whose task graphs fail: a kept error
    # would hold the traceback of each raise, whose frames hold the store,
    # which holds the error, so the negotiation would be freed only by the
    # cyclic collector
    system = shared(4, 2)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        answer, trace = negotiate(system, [])
        rejected = trace.lines.count("  reject: structure")
        del answer, trace
        gc.collect()
        left = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert rejected and left == []
