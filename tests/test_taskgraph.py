import hashlib
import random
from itertools import accumulate

import pytest

import systems
from conftest import CORPUS
from nego import cli
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
    build_task_graph,
    render_graph,
)
from nego.timing import MODELS

from oracles import assignments, reference_chains


def qs(chain):
    return [f"{c}.{t}" for c, t in chain.task_ids]


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
    assert chain.prefix[-1] == 30
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
    assert all(("O2", "om") not in chain.task_ids for chain in pre.chains)
    post = build_task_graph(software_post, cfg_accepted, NORMAL)
    hits = [task for chain in post.chains for task in chain.task_ids if task == ("O2", "om")]
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
    assert [component for component, _ in chain.task_ids] == names
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


GOLDEN_GRAPH = {
    NORMAL: (
        "chain P.park_assist mode=normal period=200 jitter=5:"
        " P.p1(3/1) -> T.tc1(5/1) -> O2.or2(10/1) -> T.tc2(5/1) -> P.p2(7/1)\n"
        "  timing 150 park_assist over [P.p1(3/1), T.tc1(5/1), O2.or2(10/1), T.tc2(5/1), P.p2(7/1)]\n"
        "  timing 100 object_recognition.get() over [O2.or2(10/1)]\n"
    ),
    INITIALIZATION: "chain P.init mode=initialization period=- jitter=-: T.tci(10/5)\n",
}


@pytest.mark.parametrize("mode", MODES)
def test_corpus_graph_output_is_pinned(mode, capsys):
    argv = [
        "graph",
        "--contracts", str(CORPUS / "contracts"),
        "--services", str(CORPUS / "services.repo"),
        "--platform", str(CORPUS / "platform.txt"),
        "--config", str(CORPUS / "current.config"),
        "--mode", mode,
    ]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == GOLDEN_GRAPH[mode]


def test_post_update_graph_rendering_is_pinned(software_post, cfg_accepted):
    text = "".join(render_graph(build_task_graph(software_post, cfg_accepted, mode)) for mode in MODES)
    assert text == (
        "chain L.lane_assist mode=normal period=100 jitter=5: L.la1(3/1) -> O2.or2(10/1) -> L.la2(3/1)"
        " -> O2.om(10/1) -> L.la3(10/5) -> S.s(10/1) -> L.la4(4/1)\n"
        "  timing 75 lane_assist over [L.la1(3/1), O2.or2(10/1), L.la2(3/1), O2.om(10/1), L.la3(10/5),"
        " S.s(10/1), L.la4(4/1)]\n"
        "chain P.park_assist mode=normal period=200 jitter=5:"
        " P.p1(3/1) -> T.tc1(5/1) -> O1.or1(50/1) -> T.tc2(5/1) -> P.p2(7/1)\n"
        "  timing 150 park_assist over [P.p1(3/1), T.tc1(5/1), O1.or1(50/1), T.tc2(5/1), P.p2(7/1)]\n"
        "  timing 100 object_recognition.get() over [O1.or1(50/1)]\n"
        "chain P.init mode=initialization period=- jitter=-: T.tci(10/5)\n"
    )


# SHA-256 of `render_graph` in both modes over `systems.random_fork_system`
# seeds 0..299: forked chains, inlined calls and the `over [...]` lines of
# requirements on them, empty spans among them.
FORK_RENDER_DIGEST = "ad88d2021de146e00bdc5ed6fb76db92c2c044c4f4600c9feae24ea67395a0f2"


def test_fork_system_rendering_is_pinned():
    digest = hashlib.sha256()
    for seed in range(300):
        system = systems.random_fork_system(random.Random(seed))
        for mode in MODES:
            digest.update(render_graph(build_task_graph(system.software, system.config, mode)).encode())
    assert digest.hexdigest() == FORK_RENDER_DIGEST


# ---------------------------------------------------------------------------
# the chains' columns and the requirements the unfolding keeps, against a
# recursive unfolding


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


def test_a_hand_built_chain_takes_its_columns_from_rows():
    rows = [(("A", "a"), ("A", "t"), 2, 1), (("B", "b"), ("B", "e"), 3, 2)]
    chain = Chain.of(("A", "t"), NORMAL, rows, EventModel(10, 0))
    assert chain.task_ids == (("A", "a"), ("B", "b"))
    assert chain.threads == (("A", "t"), ("B", "e"))
    assert chain.wcets == (2, 3)
    assert chain.bcets == (1, 2)
    assert chain.prefix == (0, 2, 5)
    empty = Chain.of(("A", "i"), INITIALIZATION, [], None)
    assert (empty.task_ids, empty.threads, empty.wcets, empty.bcets, empty.prefix) == ((), (), (), (), (0,))
    with pytest.raises(TypeError):
        Chain(("A", "t"), NORMAL, EventModel(10, 0))  # no columns, no empty default


def _assert_unfolding(software, cfg, mode, graph):
    """Each chain's columns hold the tasks of `reference_chains`, its prefix
    sum their summed WCETs, and it keeps the requirements the reference
    finds on every unfolded span; the number of those requirements."""
    expected = reference_chains(software, cfg, mode)
    assert {chain.root for chain in graph.chains} == set(expected), (cfg, mode)
    for chain in graph.chains:
        tasks, requirements = expected[chain.root]
        columns = tuple(zip(*tasks)) or ((), (), (), ())
        assert (chain.task_ids, chain.threads, chain.wcets, chain.bcets) == columns, (cfg, mode, chain.root)
        assert chain.prefix == tuple(accumulate(columns[2], initial=0)), (cfg, mode, chain.root)
        assert chain.requirements == requirements, (cfg, mode, chain.root)
    return sum(len(requirements) for _, requirements in expected.values())


def test_chains_match_a_recursive_unfolding_on_fork_systems():
    found = forked = 0
    for seed in range(300):
        system = systems.random_fork_system(random.Random(seed))
        for mode in MODES:
            graph = build_task_graph(system.software, system.config, mode)
            found += _assert_unfolding(system.software, system.config, mode, graph)
            forked += sum(chain.triggered_by is not None for chain in graph.chains)
    assert found > 1000 and forked > 100


def test_chains_match_a_recursive_unfolding_on_corpus_and_random_graphs(corpus_dir, system_pre):
    pairs = _corpus_configurations(corpus_dir, system_pre)
    assert len(list(_graphs(pairs))) >= 20
    pairs += list(_random_candidates(200))
    chains = found = 0
    for entry in _graphs(pairs):
        found += _assert_unfolding(*entry)
        chains += len(entry[3].chains)
    assert found > 100 and chains > 200


def test_chains_match_a_recursive_unfolding_on_random_chain_systems():
    bcets = set()
    for seed in range(200):
        system = random_chain_system(random.Random(seed))
        for mode in MODES:
            graph = build_task_graph(system.software, system.config, mode)
            _assert_unfolding(system.software, system.config, mode, graph)
            bcets |= {bcet for chain in graph.chains for bcet in chain.bcets}
    assert {1, 2, 3} <= bcets
