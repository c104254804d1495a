import random

import pytest

import nego.sim
from nego.dsl import load_software_model
from nego.model import Configuration
from nego.randsys import random_chain_system
from nego.sim import (
    ReleaseScenario,
    default_horizon,
    random_scenario,
    simulate,
    synchronous_scenario,
    worst_observed,
)
from nego.taskgraph import (
    INITIALIZATION,
    NORMAL,
    Chain,
    EventModel,
    TaskGraph,
    TaskNode,
    build_task_graph,
    total_wcet,
)
from oracles import reference_simulate, reference_worst_observed

LANE_SPAN = (("L", "lane_assist"), (0, 7))
PARK_SPAN = (("P", "park_assist"), (0, 5))
OR_SUB_SPAN = (("P", "park_assist"), (2, 3))


def _two_periodic():
    texts = [
        "component CA threads thread ta on time (period=12 jitter=0) "
        "task a onto CPU wcet=7 bcet=1",
        "component CB threads thread tb on time (period=5 jitter=0) "
        "task b onto CPU wcet=2 bcet=1",
    ]
    software = load_software_model(texts, "")
    cfg = Configuration(
        frozenset({"CA", "CB"}), frozenset(),
        {("CA", "a"): "R1", ("CB", "b"): "R1"},
        (("CA", "ta"), ("CB", "tb")),
    )
    return build_task_graph(software, cfg, NORMAL), cfg


def test_hand_traced_schedule():
    graph, cfg = _two_periodic()
    scenario = ReleaseScenario((0, 0), ((), ()), 24)
    result = simulate(graph, cfg, scenario, trace=True)
    assert not result.partial
    assert result.latencies[(("CA", "ta"), (0, 1))] == [7, 7]
    assert result.latencies[(("CB", "tb"), (0, 1))] == [9, 6, 10, 7, 4]
    assert result.trace == (
        "t=0 release CA.ta#0",
        "t=0 release CB.tb#0",
        "t=5 release CB.tb#1",
        "t=10 release CB.tb#2",
        "t=12 release CA.ta#1",
        "t=15 release CB.tb#3",
        "t=20 release CB.tb#4",
        "t=0 dispatch CA.a#0",
        "t=7 complete CA.a#0",
        "t=7 dispatch CB.b#0",
        "t=9 complete CB.b#0",
        "t=9 dispatch CB.b#1",
        "t=11 complete CB.b#1",
        "t=11 dispatch CB.b#2",
        "t=12 preempt CB.b#2",
        "t=12 dispatch CA.a#1",
        "t=19 complete CA.a#1",
        "t=19 dispatch CB.b#2",
        "t=20 complete CB.b#2",
        "t=20 dispatch CB.b#3",
        "t=22 complete CB.b#3",
        "t=22 dispatch CB.b#4",
        "t=24 complete CB.b#4",
    )


def test_horizon_overrun_marks_partial():
    graph, cfg = _two_periodic()
    result = simulate(graph, cfg, ReleaseScenario((0, 0), ((), ()), 15))
    # the backlogged third job finishes at 20, past the horizon
    assert result.partial
    assert result.latencies[(("CB", "tb"), (0, 1))] == [9, 6, 10]


def test_worst_observed_matches_busy_window_not_single_blocking():
    graph, cfg = _two_periodic()
    worst = worst_observed(graph, cfg)
    # busy-window bound is 10 and tight; single-blocking says 9
    assert worst == {(("CA", "ta"), (0, 1)): 7, (("CB", "tb"), (0, 1)): 10}


def test_default_horizon_is_two_hyperperiods():
    graph, cfg = _two_periodic()
    assert default_horizon(graph) == 120


def test_jitter_draw_outside_range_rejected():
    graph, cfg = _two_periodic()
    with pytest.raises(ValueError):
        simulate(graph, cfg, ReleaseScenario((0, 0), ((), (3,)), 24))


def test_horizon_below_one_rejected():
    graph, cfg = _two_periodic()
    for horizon in (0, -5):
        with pytest.raises(ValueError, match="below 1"):
            simulate(graph, cfg, ReleaseScenario((0, 0), ((), ()), horizon))
        with pytest.raises(ValueError, match="below 1"):
            random_scenario(graph, random.Random(0), horizon)
        with pytest.raises(ValueError, match="below 1"):
            worst_observed(graph, cfg, horizon)


def test_unknown_pattern_rejected():
    graph, cfg = _two_periodic()
    with pytest.raises(ValueError):
        synchronous_scenario(graph, 24, pattern="late")


def test_one_shot_chain(software_pre, current_config):
    graph = build_task_graph(software_pre, current_config, INITIALIZATION)
    result = simulate(graph, current_config, ReleaseScenario((0,), ((),), 10))
    assert not result.partial
    assert result.maxima() == {(("P", "init"), (0, 1)): 10}


def test_lex_candidate_reaches_170(software_post, cfg_lane_on_o2_lex):
    graph = build_task_graph(software_post, cfg_lane_on_o2_lex, NORMAL)
    scenario = synchronous_scenario(graph, 400, pattern="zero")
    maxima = simulate(graph, cfg_lane_on_o2_lex, scenario).maxima()
    assert maxima[PARK_SPAN] == 170
    assert maxima[LANE_SPAN] == 58


def test_accepted_candidate_reaches_170(software_post, cfg_accepted):
    graph = build_task_graph(software_post, cfg_accepted, NORMAL)
    scenario = synchronous_scenario(graph, 400, pattern="max-first")
    maxima = simulate(graph, cfg_accepted, scenario).maxima()
    assert maxima[PARK_SPAN] == 170
    assert maxima[LANE_SPAN] == 50


def test_worst_observed_accepted_candidate(software_post, cfg_accepted):
    graph = build_task_graph(software_post, cfg_accepted, NORMAL)
    worst = worst_observed(graph, cfg_accepted)
    assert worst == {LANE_SPAN: 50, PARK_SPAN: 170, OR_SUB_SPAN: 100}
    # 170 exceeds the single-blocking park bound of 120 and meets the
    # busy-window bound of 170: one model is optimistic, the other tight
    assert worst[PARK_SPAN] > 120


def test_random_scenario_respects_span_work(software_post, cfg_accepted):
    graph = build_task_graph(software_post, cfg_accepted, NORMAL)
    rng = random.Random(7)
    result = simulate(graph, cfg_accepted, random_scenario(graph, rng, 400))
    for (root, span), values in result.latencies.items():
        chain = graph.chain(root)
        for value in values:
            assert value >= total_wcet(chain, span)


def test_random_scenario_counts_releases_exactly():
    # (2**60 + 1) / 2**60 rounds down to 1.0 in floating point, which would
    # leave one activation inside the horizon without a jitter draw
    node = TaskNode("C", "t", 1, 1, "CPU", ("C", "main"))
    chain = Chain(("C", "main"), NORMAL, (node,), EventModel(2**60, 1))
    scenario = random_scenario(TaskGraph(NORMAL, (chain,)), random.Random(0), 2**60 + 1)
    assert len(scenario.draws[0]) == 3


def _redrawn_systems(seeds):
    """`random_chain_system` seeds with the mapping and the priority order
    drawn again: once with every task on R1, once over R1 and R2."""
    for seed in seeds:
        system = random_chain_system(random.Random(seed))
        graph = build_task_graph(system.software, system.config, NORMAL)
        rng = random.Random(seed)
        for resources in (["R1"], ["R1", "R2"]):
            mapping = {task: rng.choice(resources) for task in sorted(system.config.mapping)}
            order = list(system.config.priorities)
            rng.shuffle(order)
            cfg = Configuration(system.config.selected, system.config.connections, mapping, tuple(order))
            yield graph, cfg, rng


def test_simulate_matches_unit_step_reference():
    partial = migrated = 0
    for graph, cfg, rng in _redrawn_systems(range(300)):
        migrated += len(set(cfg.mapping.values())) > 1
        full = default_horizon(graph)
        scenarios = [synchronous_scenario(graph, full, pattern) for pattern in ("max-first", "zero")]
        for _ in range(3):
            # horizons from a single unit up to the default, most of them
            # short enough to leave a backlog that runs past them
            scenarios.append(random_scenario(graph, rng, rng.randint(1, full)))
        for scenario in scenarios:
            result = simulate(graph, cfg, scenario)
            latencies, expected_partial = reference_simulate(graph, cfg, scenario)
            assert list(result.latencies.items()) == list(latencies.items())
            assert result.partial == expected_partial
            partial += expected_partial
    assert partial >= 20 and migrated >= 20


def test_worst_observed_matches_grid_walk():
    for graph, cfg, rng in _redrawn_systems(range(80)):
        horizon = rng.randint(1, default_horizon(graph))
        assert worst_observed(graph, cfg, horizon) == reference_worst_observed(graph, cfg, horizon)


def test_worst_observed_runs_each_offset_vector_once_without_jitter(monkeypatch):
    graph, cfg = _two_periodic()
    runs = []
    run = nego.sim._run

    def counting(plan, offsets, *rest):
        runs.append(offsets)
        return run(plan, offsets, *rest)

    monkeypatch.setattr(nego.sim, "_run", counting)
    worst_observed(graph, cfg)
    assert runs == [(0, offset) for offset in range(5)]


def test_two_resource_trace_migrates_onto_a_finishing_resource():
    texts = [
        "component CA threads thread ta on time (period=20 jitter=0) "
        "task a onto CPU wcet=2 bcet=1",
        "component CB threads thread tb on time (period=6 jitter=0) "
        "task b1 onto CPU wcet=2 bcet=1 task b2 onto CPU wcet=3 bcet=1",
        "component CC threads thread tc on time (period=20 jitter=0) "
        "task c onto CPU wcet=5 bcet=1",
    ]
    software = load_software_model(texts, "")
    cfg = Configuration(
        frozenset({"CA", "CB", "CC"}), frozenset(),
        {("CA", "a"): "R2", ("CB", "b1"): "R1", ("CB", "b2"): "R2", ("CC", "c"): "R1"},
        (("CB", "tb"), ("CA", "ta"), ("CC", "tc")),
    )
    graph = build_task_graph(software, cfg, NORMAL)
    result = simulate(graph, cfg, ReleaseScenario((0, 0, 0), ((), (), ()), 12), trace=True)
    assert not result.partial
    assert result.latencies == {
        (("CA", "ta"), (0, 1)): [2],
        (("CB", "tb"), (0, 2)): [5, 5],
        (("CC", "tc"), (0, 1)): [9],
    }
    # at t=2 both resources finish their jobs and CB's job moves from R1 to
    # R2; lines at one instant follow resource-name order
    assert result.trace == (
        "t=0 release CA.ta#0",
        "t=0 release CB.tb#0",
        "t=0 release CC.tc#0",
        "t=6 release CB.tb#1",
        "t=0 dispatch CB.b1#0",
        "t=0 dispatch CA.a#0",
        "t=2 complete CB.b1#0",
        "t=2 complete CA.a#0",
        "t=2 dispatch CC.c#0",
        "t=2 dispatch CB.b2#0",
        "t=5 complete CB.b2#0",
        "t=6 preempt CC.c#0",
        "t=6 dispatch CB.b1#1",
        "t=8 complete CB.b1#1",
        "t=8 dispatch CC.c#0",
        "t=8 dispatch CB.b2#1",
        "t=9 complete CC.c#0",
        "t=11 complete CB.b2#1",
    )
