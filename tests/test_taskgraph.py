import random
from itertools import accumulate

import pytest

import systems
from nego.cli import _parse_request_file
from nego.dsl import load_software_model
from nego.model import Configuration, Rejected, SystemModel, apply_updates, parse_platform, pinned_components
from nego.negotiation import negotiate
from nego.randsys import random_chain_system, random_software_system
from nego.taskgraph import (
    MODES,
    Chain,
    CycleError,
    EventModel,
    GraphError,
    INITIALIZATION,
    NORMAL,
    StructuralError,
    TaskNode,
    build_task_graph,
    render_graph,
    total_wcet,
)
from nego.timing import MODELS

from oracles import assignments, reference_requirements


def qs(chain):
    return [f"{c}.{t}" for c, t in (n.task_id for n in chain.nodes)]


def test_eta():
    event = EventModel(100, 5)
    assert event.eta(0) == 0
    assert event.eta(-3) == 0
    assert event.eta(1) == 1
    assert event.eta(95) == 1
    assert event.eta(96) == 2
    assert event.eta(100) == 2
    assert event.eta(195) == 2
    assert event.eta(196) == 3


def test_pre_update_park_chain(software_pre, current_config):
    graph = build_task_graph(software_pre, current_config, NORMAL)
    assert len(graph.chains) == 1
    chain = graph.chains[0]
    assert chain.root == ("P", "park_assist")
    assert qs(chain) == ["P.p1", "T.tc1", "O2.or2", "T.tc2", "P.p2"]
    assert chain.event.period == 200 and chain.event.jitter == 5
    assert total_wcet(chain) == 30
    spans = {(r.bound, r.span, r.target) for r in chain.requirements}
    assert spans == {(150, (0, 5), "park_assist"), (100, (2, 3), "object_recognition.get()")}
    assert chain.connections_used == {
        ("P", "trajectory_calculation", "T"),
        ("T", "object_recognition", "O2"),
    }


def test_pre_update_init_chain(software_pre, current_config):
    graph = build_task_graph(software_pre, current_config, INITIALIZATION)
    assert len(graph.chains) == 1
    chain = graph.chains[0]
    assert chain.root == ("P", "init")
    assert qs(chain) == ["T.tci"]
    assert chain.event is None
    assert chain.requirements == ()


def test_om_task_only_after_update(software_pre, software_post, current_config, cfg_accepted):
    pre = build_task_graph(software_pre, current_config, NORMAL)
    assert all(node.task_id != ("O2", "om") for node in pre.tasks())
    post = build_task_graph(software_post, cfg_accepted, NORMAL)
    hits = [node for node in post.tasks() if node.task_id == ("O2", "om")]
    assert len(hits) == 1


def test_post_update_lane_chain(software_post, cfg_accepted):
    graph = build_task_graph(software_post, cfg_accepted, NORMAL)
    lane = graph.chain(("L", "lane_assist"))
    assert qs(lane) == ["L.la1", "O2.or2", "L.la2", "O2.om", "L.la3", "S.s", "L.la4"]
    assert [r.span for r in lane.requirements] == [(0, 7)]
    park = graph.chain(("P", "park_assist"))
    assert qs(park) == ["P.p1", "T.tc1", "O1.or1", "T.tc2", "P.p2"]
    or_sub = [r for r in park.requirements if r.span == (2, 3)]
    assert or_sub and or_sub[0].bound == 100 and or_sub[0].owner == "T"


def test_post_update_lane_on_o1(software_post, cfg_lane_on_o1):
    graph = build_task_graph(software_post, cfg_lane_on_o1, NORMAL)
    lane = graph.chain(("L", "lane_assist"))
    assert qs(lane) == ["L.la1", "O1.or1", "L.la2", "O2.om", "L.la3", "S.s", "L.la4"]
    park = graph.chain(("P", "park_assist"))
    assert qs(park) == ["P.p1", "T.tc1", "O2.or2", "T.tc2", "P.p2"]


def test_chains_sorted_by_root(software_post, cfg_accepted):
    graph = build_task_graph(software_post, cfg_accepted, NORMAL)
    roots = [chain.root for chain in graph.chains]
    assert roots == sorted(roots)


def test_missing_provider_is_structural():
    texts = [
        "component A services requires s threads thread t on time (period=5 jitter=0) task a onto R wcet=1 bcet=1 RPC s.m()",
        "component B services provides s threads thread e on RPC s.m() task b onto R wcet=1 bcet=1",
    ]
    software = load_software_model(texts, "service s method m ()")
    cfg = Configuration(
        frozenset({"A", "B"}), frozenset(), {("A", "a"): "R1", ("B", "b"): "R1"},
        (("A", "t"), ("B", "e")),
    )
    with pytest.raises(StructuralError):
        build_task_graph(software, cfg, NORMAL)


def test_missing_entry_thread_is_structural():
    texts = [
        "component A services requires s threads thread t on time (period=5 jitter=0) task a onto R wcet=1 bcet=1 RPC s.m()",
        "component B services provides s",
    ]
    software = load_software_model(texts, "service s method m ()")
    cfg = Configuration(
        frozenset({"A", "B"}), frozenset({("A", "s", "B")}), {("A", "a"): "R1"}, (("A", "t"),)
    )
    with pytest.raises(StructuralError):
        build_task_graph(software, cfg, NORMAL)


def test_call_cycle_detected():
    texts = [
        "component A services requires sb provides sa threads "
        "thread t on time (period=9 jitter=0) task a onto R wcet=1 bcet=1 RPC sb.m() "
        "thread ea on RPC sa.m() task a2 onto R wcet=1 bcet=1 RPC sb.m()",
        "component B services requires sa provides sb threads "
        "thread eb on RPC sb.m() task b onto R wcet=1 bcet=1 RPC sa.m()",
    ]
    repo = "service sa method m ()\nservice sb method m ()"
    software = load_software_model(texts, repo)
    cfg = Configuration(
        frozenset({"A", "B"}),
        frozenset({("A", "sb", "B"), ("B", "sa", "A")}),
        {("A", "a"): "R1", ("A", "a2"): "R1", ("B", "b"): "R1"},
        (("A", "t"), ("A", "ea"), ("B", "eb")),
    )
    with pytest.raises(CycleError, match=r"^chain A\.t: call cycle A -> B -> A$"):
        build_task_graph(software, cfg, NORMAL)


def test_deep_rpc_chain_unfolds_without_recursion():
    system = systems.deep(1500)
    software = system.software
    names = sorted(software.contracts)
    cfg = Configuration(
        frozenset(names),
        frozenset((names[i], f"s{i + 1:04d}", names[i + 1]) for i in range(len(names) - 1)),
        {(c, "t"): "R0" for c in names},
        tuple(sorted((c, t.name) for c in names for t in software.contracts[c].threads)),
    )
    graph = build_task_graph(software, cfg, NORMAL)
    (chain,) = graph.chains
    assert [n.component for n in chain.nodes] == names
    assert len(chain.connections_used) == 1499


def test_empty_periodic_chain_is_structural():
    texts = [
        "component A services requires s threads thread t on time (period=5 jitter=0) SIGNAL s.m()",
        "component B services provides s threads thread e on RPC s.m() task b onto R wcet=1 bcet=1",
    ]
    software = load_software_model(texts, "service s method m ()")
    cfg = Configuration(
        frozenset({"A", "B"}), frozenset({("A", "s", "B")}), {("B", "b"): "R1"},
        (("A", "t"), ("B", "e")),
    )
    with pytest.raises(StructuralError, match="no tasks"):
        build_task_graph(software, cfg, NORMAL)


def test_signal_forks_new_chain():
    texts = [
        "component A services requires s threads thread t on time (period=20 jitter=2) "
        "task a onto R wcet=2 bcet=1 SIGNAL s.m()",
        "component B services provides s threads thread e on RPC s.m() task b onto R wcet=3 bcet=1",
    ]
    software = load_software_model(texts, "service s method m ()")
    cfg = Configuration(
        frozenset({"A", "B"}),
        frozenset({("A", "s", "B")}),
        {("A", "a"): "R1", ("B", "b"): "R1"},
        (("A", "t"), ("B", "e")),
    )
    graph = build_task_graph(software, cfg, NORMAL)
    assert len(graph.chains) == 2
    forked = graph.chain(("B", "e"))
    assert qs(forked) == ["B.b"]
    assert forked.triggered_by == (("A", "t"), 1)
    assert forked.event == graph.chain(("A", "t")).event


def test_every_normal_mode_chain_has_an_event_model():
    # A normal root is time-activated and a fork takes its trigger's event
    # model (`test_signal_forks_new_chain`; the random systems fork
    # nothing), so `timing.utilization` finds a period on every normal chain.
    chains = 0
    for seed in range(300):
        software = random_software_system(random.Random(seed)).software
        for selected, conns in assignments(software, pinned_components(software)):
            connections = frozenset((c, s, p) for (c, s), p in conns.items())
            try:
                graph = build_task_graph(software, Configuration(selected, connections, {}, ()), NORMAL)
            except GraphError:
                continue
            assert all(chain.event is not None for chain in graph.chains), seed
            chains += len(graph.chains)
    assert chains > 250


def test_entry_thread_signalled_by_two_chains_is_structural():
    texts = [
        "component A services requires s threads thread t on time (period=20 jitter=0) "
        "task a onto R wcet=1 bcet=1 SIGNAL s.m()",
        "component C services requires s threads thread t on time (period=10 jitter=0) "
        "task c onto R wcet=1 bcet=1 SIGNAL s.m()",
        "component B services provides s threads thread e on RPC s.m() task b onto R wcet=1 bcet=1",
    ]
    software = load_software_model(texts, "service s method m ()")
    system = SystemModel(software, parse_platform("resource R1 type R"), None)
    answer, trace = negotiate(system, [])
    assert answer == Rejected("exhausted", answer.constraints)
    assert "  structure: thread B.e activated by more than one chain" in trace.lines
    assert [str(c) for c in answer.constraints] == ["forbid{conn[A,s]=B, conn[C,s]=B}"]


def test_render_graph_mentions_chains(software_pre, current_config):
    text = render_graph(build_task_graph(software_pre, current_config, NORMAL))
    assert "chain P.park_assist" in text
    assert "O2.or2(10/1)" in text


# ---------------------------------------------------------------------------
# the chains' columns and the requirements the unfolding keeps


def _corpus_configurations(corpus_dir, system_pre):
    """(software, configuration) of every graph the corpus requests build:
    the current configuration where it is revalidated, and every
    candidate, under both models."""
    out = [(system_pre.software, system_pre.config)]
    for path in sorted((corpus_dir / "requests").glob("*.req")):
        requests, _ = _parse_request_file(path)
        software = apply_updates(system_pre.software, requests)
        for model in MODELS:
            _, trace = negotiate(system_pre, requests, model=model)
            if not isinstance(trace.revalidation, str):  # it was evaluated
                out.append((software, system_pre.config))
            out += [(software, candidate) for candidate, _ in trace.steps]
    return out


def _random_candidates(seeds):
    for seed in range(seeds):
        system = random_software_system(random.Random(seed))
        _, trace = negotiate(system, [])
        yield from ((system.software, candidate) for candidate, _ in trace.steps)


def _graphs(pairs):
    """Both modes' graphs of each (software, configuration) whose graphs
    build, with the software and configuration."""
    for software, cfg in pairs:
        for mode in MODES:
            try:
                yield software, cfg, mode, build_task_graph(software, cfg, mode)
            except GraphError:
                continue


def _assert_columns(graph):
    for chain in graph.chains:
        nodes = chain.nodes
        assert chain.task_ids == tuple(n.task_id for n in nodes), chain.root
        assert chain.threads == tuple(n.thread for n in nodes), chain.root
        assert chain.wcets == tuple(n.wcet for n in nodes), chain.root
        assert chain.prefix == tuple(accumulate((n.wcet for n in nodes), initial=0)), chain.root


def test_columns_agree_with_the_nodes_on_every_corpus_graph(corpus_dir, system_pre):
    graphs = list(_graphs(_corpus_configurations(corpus_dir, system_pre)))
    assert len(graphs) >= 20
    for _, _, _, graph in graphs:
        _assert_columns(graph)


def test_columns_agree_with_the_nodes_on_random_candidates():
    chains = 0
    for _, _, _, graph in _graphs(_random_candidates(200)):
        _assert_columns(graph)
        chains += len(graph.chains)
    assert chains > 200


def test_columns_agree_with_the_nodes_on_random_chain_systems():
    for seed in range(200):
        system = random_chain_system(random.Random(seed))
        for mode in MODES:
            _assert_columns(build_task_graph(system.software, system.config, mode))


def test_a_hand_built_chain_derives_its_columns_from_its_nodes():
    nodes = [TaskNode(("A", "a"), 2, 1, "CPU", ("A", "t")), TaskNode(("B", "b"), 3, 1, "CPU", ("B", "e"))]
    chain = Chain.of(("A", "t"), NORMAL, nodes, EventModel(10, 0))
    assert chain.nodes == tuple(nodes)
    assert chain.task_ids == (("A", "a"), ("B", "b"))
    assert chain.threads == (("A", "t"), ("B", "e"))
    assert chain.wcets == (2, 3)
    assert chain.prefix == (0, 2, 5)
    assert total_wcet(chain) == 5 and total_wcet(chain, (1, 2)) == 3
    with pytest.raises(TypeError):
        Chain(("A", "t"), NORMAL, tuple(nodes), EventModel(10, 0))  # no columns, no empty default


def _assert_requirements(software, cfg, mode, graph):
    expected = reference_requirements(software, cfg, mode)
    assert {chain.root: chain.requirements for chain in graph.chains} == expected, (cfg, mode)
    return sum(map(len, expected.values()))


def test_kept_requirements_match_an_unfiltered_unfolding_on_fork_systems():
    found = forked = 0
    for seed in range(300):
        system = systems.random_fork_system(random.Random(seed))
        for mode in MODES:
            graph = build_task_graph(system.software, system.config, mode)
            found += _assert_requirements(system.software, system.config, mode, graph)
            forked += sum(chain.triggered_by is not None for chain in graph.chains)
    assert found > 1000 and forked > 100


def test_kept_requirements_match_an_unfiltered_unfolding_on_corpus_and_random_graphs(corpus_dir, system_pre):
    pairs = _corpus_configurations(corpus_dir, system_pre) + list(_random_candidates(200))
    assert sum(_assert_requirements(*entry) for entry in _graphs(pairs)) > 100
