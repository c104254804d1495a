import itertools
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
from nego.model import Configuration, ModelError, pinned_components, parse_platform
from nego.randsys import random_software_system
from nego.space import ConstraintStore
from nego.taskgraph import NORMAL, GraphError, build_task_graph
from nego.timing import BUSY_WINDOW, SINGLE_BLOCKING, check_timing

from conftest import (
    ACCEPTED_ORDER,
    CONNS_LANE_ON_O1,
    CONNS_LANE_ON_O2,
    LEX_ORDER,
    POST_MAPPING,
    POST_SELECTED,
)
from oracles import assignments


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
    report = check_timing(graph, first, platform, SINGLE_BLOCKING)
    for c in report.constraints:
        store.add_constraint(c)
    second = store.next_candidate()
    assert second.connections == CONNS_LANE_ON_O2
    assert second.priorities == LEX_ORDER


def test_priority_feedback_reaches_synthesis(software_post, platform):
    store = post_store(software_post, platform)
    cfg1 = store.next_candidate()
    for c in check_timing(
        build_task_graph(software_post, cfg1, NORMAL), cfg1, platform, SINGLE_BLOCKING
    ).constraints:
        store.add_constraint(c)
    cfg2 = store.next_candidate()
    for c in check_timing(
        build_task_graph(software_post, cfg2, NORMAL), cfg2, platform, SINGLE_BLOCKING
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
            build_task_graph(software_post, cfg, NORMAL), cfg, platform, BUSY_WINDOW
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
    """A thread never outranks itself, so `PriorityPrecedence.violated_by`
    never reports a self-precedence, and synthesis ignores it too."""
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
    store = post_store(software_post, platform)
    c = ForbidConjunction(frozenset({ConnLit("L", "object_recognition", "O1")}))
    store.add_constraint(c)
    store.add_constraint(c)
    assert store.constraints == (c,)


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


def _structural_space(software, platform):
    """Every (selected, connections, mapping) the store may propose, from
    the brute-force oracle."""
    for selected, conns in assignments(software, pinned_components(software)):
        tasks = sorted(
            ((comp, step.name), step.resource_type)
            for comp in selected
            for thread in software.contracts[comp].threads
            for step in thread.tasks()
        )
        pools = [[r.name for r in platform.by_type(rtype)] for _, rtype in tasks]
        for combo in itertools.product(*pools):
            mapping = {task: res for (task, _), res in zip(tasks, combo)}
            yield Configuration(selected, frozenset((c, s, p) for (c, s), p in conns.items()), mapping, ())


def _partial_key(cfg):
    return cfg.selected, cfg.connections, tuple(sorted(cfg.mapping.items()))


def test_forbids_learned_between_calls_cut_exactly():
    # Forbids over random literals of each candidate (sel[c]=false included)
    # are learned between calls.  Every proposal satisfies the constraints
    # held at that call, and every partial the final forbids leave open was
    # proposed.
    for seed in range(200):
        rng = random.Random(seed)
        system = random_software_system(random.Random(seed))
        software, platform = system.software, system.platform
        store = ConstraintStore(software, platform, pinned_components(software))
        proposed = set()
        while True:
            constraints = store.constraints
            cfg = store.next_candidate()
            if cfg is None:
                break
            assert configuration_ok(cfg, constraints), seed
            proposed.add(_partial_key(cfg))
            literals = [ConnLit(*c) for c in sorted(cfg.connections)]
            literals += [MapLit(*task, res) for task, res in sorted(cfg.mapping.items())]
            literals += [SelLit(c, False) for c in software.component_names() if c not in cfg.selected]
            if literals and rng.random() < 0.7:
                k = rng.randint(1, min(3, len(literals)))
                store.add_constraint(ForbidConjunction(frozenset(rng.sample(literals, k))))
        forbids = store.constraints
        for partial in _structural_space(software, platform):
            if not any(f.blocks(partial) for f in forbids):
                assert _partial_key(partial) in proposed, seed


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
