import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import nego.sim
from nego.dsl import load_software_model
from nego.model import Configuration, qual_str
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
    LatencyReq,
    TaskGraph,
    build_task_graph,
)
from oracles import engine_worst_observed, reference_simulate, reference_worst_observed
from systems import random_fork_system

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


def _one_chain(event, wcet, mode=NORMAL):
    chain = Chain.of(("A", "i"), mode, ((("A", "a"), ("A", "i"), wcet, 1),), event)
    cfg = Configuration(frozenset({"A"}), frozenset(), {("A", "a"): "R1"}, (("A", "i"),))
    return TaskGraph(mode, (chain,)), cfg


def _assert_both_refuse(graph, cfg, scenario, message):
    with pytest.raises(ValueError, match=message):
        simulate(graph, cfg, scenario)
    with pytest.raises(ValueError, match=message):
        reference_simulate(graph, cfg, scenario)


def test_negative_draw_on_a_one_shot_chain_is_refused():
    # released at -4, the engine would read 3 and the reference, which
    # starts time at 0, 7
    graph, cfg = _one_chain(None, 3, INITIALIZATION)
    _assert_both_refuse(graph, cfg, ReleaseScenario((0,), ((-4,),), 10), "^chain A.i has jitter draw -4, below 0$")
    delayed = ReleaseScenario((0,), ((4,),), 10)
    assert simulate(graph, cfg, delayed).latencies == reference_simulate(graph, cfg, delayed)[0] == {
        (("A", "i"), (0, 1)): [3]
    }


def test_negative_offset_is_refused():
    # at offset -3 the engine would read [2, 2] and the reference [5, 2]
    graph, cfg = _one_chain(EventModel(10, 0), 2)
    _assert_both_refuse(graph, cfg, ReleaseScenario((-3,), ((),), 10), "^chain A.i has offset -3, below 0$")


def test_jitter_draw_outside_range_rejected():
    graph, cfg = _two_periodic()
    for draws, message in ((3,), "3, above its jitter 0"), ((-1,), "-1, below 0"):
        _assert_both_refuse(graph, cfg, ReleaseScenario((0, 0), ((), draws), 24), f"^chain CB.tb has jitter draw {message}$")


def test_scenario_without_one_entry_per_chain_is_refused():
    graph, cfg = _two_periodic()
    cases = [
        (ReleaseScenario((0,), ((), ()), 24), "^the scenario has no offset for chain CB.tb$"),
        (ReleaseScenario((0, 0), ((),), 24), "^the scenario has no draw tuple for chain CB.tb$"),
        (ReleaseScenario((0, 0, 0), ((), ()), 24), "^the scenario has 3 offsets for 2 chains$"),
        (ReleaseScenario((0, 0), ((), (), ()), 24), "^the scenario has 3 draw tuples for 2 chains$"),
    ]
    for scenario, message in cases:
        _assert_both_refuse(graph, cfg, scenario, message)


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
            assert value >= chain.prefix[span[1]] - chain.prefix[span[0]]


def test_random_scenario_counts_releases_exactly():
    # (2**60 + 1) / 2**60 rounds down to 1.0 in floating point, which would
    # leave one activation inside the horizon without a jitter draw
    chain = Chain.of(("C", "main"), NORMAL, ((("C", "t"), ("C", "main"), 1, 1),), EventModel(2**60, 1))
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


def _assert_matches_reference(graph, cfg, rng):
    """Untraced `simulate` equals the unit-step reference on synchronous
    and random scenarios, and the traced run, where every task is its own
    segment, observes the same latencies."""
    full = default_horizon(graph)
    scenarios = [synchronous_scenario(graph, full, pattern) for pattern in ("max-first", "zero")]
    scenarios += [random_scenario(graph, rng, rng.randint(1, full)) for _ in range(4)]
    for scenario in scenarios:
        result = simulate(graph, cfg, scenario)
        latencies, partial = reference_simulate(graph, cfg, scenario)
        assert list(result.latencies.items()) == list(latencies.items())
        assert result.partial == partial
        traced = simulate(graph, cfg, scenario, trace=True)
        assert traced.latencies == result.latencies and traced.partial == result.partial


@pytest.mark.parametrize("mode", [NORMAL, INITIALIZATION])
def test_rpc_chains_with_method_spans_match_reference(
    mode, software_pre, software_post, current_config, cfg_accepted, cfg_lane_on_o2_lex
):
    # each RPC callee runs at its own thread's rank between its caller's
    # tasks, and park_assist[2:3] times one callee inside the chain; under
    # the lex order, lane_assist's callees rank below park_assist's tasks
    spans = set()
    configured = [(software_pre, current_config), (software_post, cfg_accepted), (software_post, cfg_lane_on_o2_lex)]
    for software, cfg in configured:
        graph = build_task_graph(software, cfg, mode)
        spans |= {(chain.root, req.span) for chain in graph.chains for req in chain.requirements}
        _assert_matches_reference(graph, cfg, random.Random(mode))
    assert (mode == NORMAL) == (OR_SUB_SPAN in spans)


def test_method_span_splits_same_thread_tasks():
    # x1, x2 and x3 share thread X.main and R1; the span [0:1] ends between
    # x1 and x2, so only x2 and x3 may run as one segment, and H preempts
    def task(component, name, wcet, thread):
        return ((component, name), (component, thread), wcet, 1)

    x = Chain.of(
        ("X", "main"), NORMAL,
        (task("X", "x1", 2, "main"), task("X", "x2", 3, "main"), task("X", "x3", 1, "main")),
        EventModel(12, 2),
        (LatencyReq(4, (0, 1), "X", "s.m()"), LatencyReq(9, (0, 3), "X", "main")),
    )
    h = Chain.of(("H", "main"), NORMAL, (task("H", "h", 3, "main"),), EventModel(6, 1))
    graph = TaskGraph(NORMAL, (x, h))
    cfg = Configuration(
        frozenset({"X", "H"}), frozenset(),
        {("X", "x1"): "R1", ("X", "x2"): "R1", ("X", "x3"): "R1", ("H", "h"): "R1"},
        (("H", "main"), ("X", "main")),
    )
    assert [segments for _, _, segments, _ in nego.sim._Plan(graph, cfg).chains] == [
        ((0, 1, 2), (0, 1, 4)),
        ((0, 0, 3),),
    ]
    _assert_matches_reference(graph, cfg, random.Random(0))
    for horizon in (5, 12, 24):
        assert worst_observed(graph, cfg, horizon) == reference_worst_observed(graph, cfg, horizon)


def test_task_of_wcet_zero_is_refused():
    # X = x1 (wcet 2), x2 (wcet 0) under H, released at 2 and ranked above
    # X: merged into x1's segment, x2 would read 2 for X where stepping task
    # by task reads 5, and the unit-step reference would never finish it
    x = Chain.of(
        ("X", "main"), NORMAL,
        ((("X", "x1"), ("X", "main"), 2, 1), (("X", "x2"), ("X", "main"), 0, 0)),
        EventModel(10, 0),
    )
    h = Chain.of(("H", "main"), NORMAL, ((("H", "h"), ("H", "main"), 3, 1),), EventModel(10, 0))
    graph = TaskGraph(NORMAL, (h, x))
    cfg = Configuration(
        frozenset({"X", "H"}), frozenset(),
        {("X", "x1"): "R1", ("X", "x2"): "R1", ("H", "h"): "R1"},
        (("H", "main"), ("X", "main")),
    )
    scenario = ReleaseScenario((2, 0), ((), ()), 10)
    message = "^task X.x2 has wcet 0, below 1$"
    with pytest.raises(ValueError, match=message):
        simulate(graph, cfg, scenario)
    with pytest.raises(ValueError, match=message):
        worst_observed(graph, cfg)
    with pytest.raises(ValueError, match=message):
        reference_simulate(graph, cfg, scenario)


def _fork_graph():
    """H and A on R1, B and X on R2, ranked H, A, B, X; A signals B after
    its task, so B inherits A's period of 10."""
    texts = [
        "component H threads thread t on time (period=20 jitter=0) task h onto CPU wcet=5 bcet=1",
        "component A services requires s threads thread t on time (period=10 jitter=0) "
        "task a onto CPU wcet=2 bcet=1 SIGNAL s.m()",
        "component B services provides s threads thread e on RPC s.m() task b onto CPU wcet=4 bcet=1",
        "component X threads thread t on time (period=20 jitter=0) task x onto CPU wcet=3 bcet=1",
    ]
    software = load_software_model(texts, "service s method m ()")
    cfg = Configuration(
        frozenset({"H", "A", "B", "X"}), frozenset({("A", "s", "B")}),
        {("H", "h"): "R1", ("A", "a"): "R1", ("B", "b"): "R2", ("X", "x"): "R2"},
        (("H", "t"), ("A", "t"), ("B", "e"), ("X", "t")),
    )
    return build_task_graph(software, cfg, NORMAL), cfg


def test_reference_releases_a_fork_when_its_trigger_reaches_the_signal():
    graph, cfg = _fork_graph()
    assert [chain.root for chain in graph.chains] == [("A", "t"), ("B", "e"), ("H", "t"), ("X", "t")]
    x_span, b_span = (("X", "t"), (0, 1)), (("B", "e"), (0, 1))
    # H delays A#0 to 7 and A#1 ends at 12, so B#0 and B#1 are released at
    # 7 and 12, only 5 apart; X, released at 7, completes at 18, and so on
    # in the second hyperperiod.  B's own offset of 3 is not read.
    scenario = ReleaseScenario((0, 3, 0, 7), ((), (), (), ()), 40)
    latencies, partial = reference_simulate(graph, cfg, scenario)
    assert latencies[x_span] == [11, 11]
    assert latencies[b_span] == [4, 4, 4, 4]
    assert not partial
    assert reference_worst_observed(graph, cfg, default_horizon(graph))[x_span] == 11


def test_reference_releases_a_fork_at_position_zero_with_its_trigger():
    # A signals B before its task, and B signals C after its own
    texts = [
        "component A services requires s threads thread t on time (period=10 jitter=0) "
        "SIGNAL s.m() task a onto CPU wcet=2 bcet=1",
        "component B services provides s requires u threads thread e on RPC s.m() "
        "task b onto CPU wcet=1 bcet=1 SIGNAL u.n()",
        "component C services provides u threads thread e on RPC u.n() task c onto CPU wcet=1 bcet=1",
    ]
    software = load_software_model(texts, "service s method m () service u method n ()")
    cfg = Configuration(
        frozenset({"A", "B", "C"}), frozenset({("A", "s", "B"), ("B", "u", "C")}),
        {("A", "a"): "R1", ("B", "b"): "R1", ("C", "c"): "R1"},
        (("A", "t"), ("B", "e"), ("C", "e")),
    )
    graph = build_task_graph(software, cfg, NORMAL)
    assert [chain.triggered_by for chain in graph.chains] == [None, (("A", "t"), 0), (("B", "e"), 1)]
    # A#k and B#k are released at 3 + 10k; B waits for A's task and ends at
    # 6 + 10k, when C#k is released
    latencies, _ = reference_simulate(graph, cfg, ReleaseScenario((3, 7, 9), ((), (), ()), 20))
    assert latencies == {
        (("A", "t"), (0, 1)): [2, 2],
        (("B", "e"), (0, 1)): [3, 3],
        (("C", "e"), (0, 1)): [1, 1],
    }


def simulation_digest(seeds) -> str:
    """SHA-256 over the `worst_observed` maxima of every `_redrawn_systems`
    system and the trace of its synchronous run."""
    digest = hashlib.sha256()
    for graph, cfg, _ in _redrawn_systems(seeds):
        for (root, span), seen in sorted(worst_observed(graph, cfg).items()):
            digest.update(f"{qual_str(root)} {span[0]}:{span[1]} {seen}\n".encode())
        scenario = synchronous_scenario(graph, default_horizon(graph))
        for line in simulate(graph, cfg, scenario, trace=True).trace:
            digest.update(f"{line}\n".encode())
    return digest.hexdigest()


# `simulation_digest(range(100))`: a change to the engine that keeps every
# schedule keeps it.
SIMULATION_DIGEST = "063893aeff03ef1eb04d7b498228f21fc2f30cb0e47090caebd33a5458a16266"


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_simulation_output_is_pinned(hash_seed):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    code = "import test_sim; print(test_sim.simulation_digest(range(100)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.stdout.strip() == SIMULATION_DIGEST, done.stderr


def test_worst_observed_matches_grid_walk():
    for graph, cfg, rng in _redrawn_systems(range(80)):
        horizon = rng.randint(1, default_horizon(graph))
        assert worst_observed(graph, cfg, horizon) == reference_worst_observed(graph, cfg, horizon)


def test_worst_observed_runs_each_offset_vector_once_without_jitter(monkeypatch):
    graph, cfg = _two_periodic()
    runs = _counting_runs(monkeypatch)
    worst_observed(graph, cfg)
    # CA (period 12) anchors CB (period 5), both on R1 at one rank each and
    # spanned from the release: the all-zero run stands for all five
    # vectors (rule 4), and without jitter no max-first run follows
    assert runs == _rule_4_runs([(0, offset) for offset in range(5)], jitter=False) == [(0, 0)]


def _rule_4_runs(vectors, jitter=True):
    """The offset vector of each run rule 4 makes over a critical group's
    grid `vectors`, all-zero first: one zero run, then one max-first run at
    every vector if a chain of the group has jitter."""
    return vectors[:1] + (vectors if jitter else [])


def _idle_at_window(graph, cfg, group):
    """Whether the chains `group` (indices into `graph.chains`), released
    together at 0 without jitter, are idle at their hyperperiod W: whether
    `simulate` over W leaves none of their jobs unfinished."""
    alone = TaskGraph(NORMAL, tuple(graph.chains[ci] for ci in group))
    window = math.lcm(*[chain.event.period for chain in alone.chains])
    return not simulate(alone, cfg, ReleaseScenario((0,) * len(group), ((),) * len(group), window)).partial


def _counting_runs(monkeypatch, built=None):
    """Record the offset vector of every `sim._run` call and, in `built`,
    the number of jobs each call builds: those it releases."""
    runs = []
    run = nego.sim._run

    def counting(plan, offsets, *rest, **options):
        runs.append(offsets)
        jobs = run(plan, offsets, *rest, **options)
        if built is not None:
            built.append(len(jobs))
        return jobs

    monkeypatch.setattr(nego.sim, "_run", counting)
    return runs


def _hand_chain(name, event, *wcets, span=None):
    """The chain of thread (name, "t"): tasks n0, n1, ... of the given
    wcets, with a requirement on `span` if given."""
    tasks = tuple(((name, f"{name.lower()}{i}"), (name, "t"), wcet, 1) for i, wcet in enumerate(wcets))
    requirements = (LatencyReq(100, span, name, "t"),) if span else ()
    return Chain.of((name, "t"), NORMAL, tasks, event, requirements)


def _hand_system(chains, mapping, order):
    """The graph of `chains` with each task on its resource in `mapping`,
    and their threads ranked by the component names in `order`."""
    cfg = Configuration(frozenset(order), frozenset(), mapping, tuple((name, "t") for name in order))
    return TaskGraph(NORMAL, tuple(chains)), cfg


def _three_groups(merged=False):
    """A and B (jitter 2) on R1, C and D without jitter on R2, the one-shot
    E on R3, ranked B, A, D, C, E.  `merged` moves D's second task to R1
    and gives E a second task there, so D and E each span two resources and
    every chain shares one group."""
    chains = (
        _hand_chain("A", EventModel(12, 0), 3),
        _hand_chain("B", EventModel(6, 2), 1, 1, span=(1, 2)),
        _hand_chain("C", EventModel(4, 0), 1),
        _hand_chain("D", EventModel(6, 0), 1, 2, span=(0, 1)),
        _hand_chain("E", None, 2, 1),
    )
    mapping = {
        ("A", "a0"): "R1", ("B", "b0"): "R1", ("B", "b1"): "R1",
        ("C", "c0"): "R2", ("D", "d0"): "R2", ("D", "d1"): "R1" if merged else "R2",
        ("E", "e0"): "R3", ("E", "e1"): "R1" if merged else "R3",
    }
    return _hand_system(chains, mapping, "BADCE")


def test_worst_observed_sweeps_each_group_on_its_own_grid(monkeypatch):
    graph, cfg = _three_groups()
    assert [[entry[0] for entry in group] for group in nego.sim._Plan(graph, cfg).groups] == [[0, 1], [2, 3], [4]]
    full = default_horizon(graph)
    assert full == 24
    for horizon in (full, 5, 11, 17):
        assert worst_observed(graph, cfg, horizon) == reference_worst_observed(graph, cfg, horizon)
    built = []
    runs = _counting_runs(monkeypatch, built)
    worst_observed(graph, cfg)
    # {A, B}: B's 6 offsets under both patterns, since B's span [1:2] does
    # not start at the release; {C, D}, critical and without jitter: the
    # all-zero run of its 4 x 6 offsets (rule 4); {E}: one run.  The full
    # product would be 6 x 4 x 6 x 2 = 288.
    critical = [(0, 0, c, d, 0) for c in range(4) for d in range(6)]
    assert runs == [(0, b, 0, 0, 0) for b in range(6) for _ in range(2)] + _rule_4_runs(critical, jitter=False) + [(0,) * 5]
    # {C, D} has the hyperperiod 12, half the horizon; a zero run idle there
    # releases the 3 + 2 jobs released before it only, and 6 + 4 otherwise
    assert built[12:] == [5 if _idle_at_window(graph, cfg, [2, 3]) else 10, 1]


def _with_lone_chain(jitter=3, second_thread="t"):
    """`_three_groups()` and the chain F (period 4) alone on R4: two tasks,
    the second run by `second_thread`, and a span over the second; F's
    threads rank last."""
    graph, cfg = _three_groups()
    tasks = ((("F", "f0"), ("F", "t"), 2, 1), (("F", "f1"), ("F", second_thread), 2, 1))
    chain = Chain.of(("F", "t"), NORMAL, tasks, EventModel(4, jitter), (LatencyReq(100, (1, 2), "F", "t"),))
    mapping = {**cfg.mapping, ("F", "f0"): "R4", ("F", "f1"): "R4"}
    threads = tuple(sorted({("F", "t"), ("F", second_thread)}))
    cfg = Configuration(cfg.selected | {"F"}, frozenset(), mapping, cfg.priorities + threads)
    return TaskGraph(NORMAL, graph.chains + (chain,)), cfg


@pytest.mark.parametrize("jitter", [3, 0])
def test_a_lone_one_rank_chain_runs_at_offset_zero_only(monkeypatch, jitter):
    graph, cfg = _with_lone_chain(jitter)
    assert [[entry[0] for entry in group] for group in nego.sim._Plan(graph, cfg).groups] == [[0, 1], [2, 3], [4], [5]]
    full = default_horizon(graph)
    assert full == 24
    for horizon in (full, 5, 11, 17):
        assert worst_observed(graph, cfg, horizon) == reference_worst_observed(graph, cfg, horizon)
    built = []
    runs = _counting_runs(monkeypatch, built)
    worst_observed(*_three_groups())
    without = (list(runs), list(built))
    runs.clear()
    built.clear()
    worst_observed(graph, cfg)
    # F runs once per pattern that draws differently for it, at offset 0,
    # not at each of its 4 offsets; its jitter 3 and its work 4 exceed its
    # period, so the max-first pattern runs (rule 2).  The other groups run
    # as they do without F.
    patterns = 2 if jitter else 1
    assert len(runs) == len(without[0]) + patterns
    assert runs[-patterns:] == [(0, 0, 0, 0, 0, 0)] * patterns
    assert [vector[:5] for vector in runs[:-patterns]] == without[0]
    # F's zero-pattern job ends at 4, its hyperperiod, so its run releases
    # 1 job of 6; the max-first job, released at 3, runs past 4, and F is
    # never idle again before the horizon, so that run releases all 6
    assert built == without[1] + [1, 6][:patterns]


def test_a_lone_chain_of_two_ranks_sweeps_its_period(monkeypatch):
    # a later job's f0 outranks an earlier job's f1, so it can delay it
    graph, cfg = _with_lone_chain(second_thread="u")
    assert len(nego.sim._Plan(graph, cfg).groups) == 4
    assert worst_observed(graph, cfg) == reference_worst_observed(graph, cfg, default_horizon(graph))
    runs = _counting_runs(monkeypatch)
    worst_observed(graph, cfg)
    # the other groups as in `test_worst_observed_sweeps_each_group_on_its_own_grid`
    assert len(runs) == 6 * 2 + 1 + 1 + 4 * 2
    assert runs[-8:] == [(0, 0, 0, 0, 0, offset) for offset in range(4) for _ in range(2)]


def test_a_critical_group_at_full_utilization_runs_once(monkeypatch):
    # A (period 4, wcet 2) anchors over B (period 8, wcet 4) on R1, at
    # utilization 1, so a zero run at B's offsets 3 to 7 is busy at W = 8
    # and the all-zero run is idle there; that run stands for all eight
    # vectors (rule 4) at every horizon, whole windows or not
    chains = (_hand_chain("A", EventModel(4, 0), 2), _hand_chain("B", EventModel(8, 0), 4))
    graph, cfg = _hand_system(chains, {("A", "a0"): "R1", ("B", "b0"): "R1"}, "AB")
    assert _idle_at_window(graph, cfg, [0, 1])
    built = []
    runs = _counting_runs(monkeypatch, built)
    for horizon in (16, 32, 15, 8):
        assert worst_observed(graph, cfg, horizon) == reference_worst_observed(graph, cfg, horizon)
    vectors = [(0, b) for b in range(8)]
    assert runs == _rule_4_runs(vectors, jitter=False) * 4
    # at 16 and 32 the run stops at W, after the 2 + 1 jobs released before
    # it; at 15 and 8 no run may stop there
    assert built == [3, 3, 6, 3]


def _rule_4_group(variant):
    """A (period 4) anchors over B (period 6, jitter 1) on R1, whose two
    tasks run on one thread and whose span is the whole chain: every
    condition of rule 4 holds.  Each variant breaks one: B's second task
    on R2, or run by a second thread of B ranked last, or a span over B's
    second task alone."""
    a = (("A", "a0"), ("A", "t"), 1, 1)
    b0 = (("B", "b0"), ("B", "t"), 1, 1)
    b1 = (("B", "b1"), ("B", "u" if variant == "two ranks" else "t"), 2, 1)
    span = (1, 2) if variant == "inner span" else (0, 2)
    chains = (
        Chain.of(("A", "t"), NORMAL, (a,), EventModel(4, 0)),
        Chain.of(("B", "t"), NORMAL, (b0, b1), EventModel(6, 1), (LatencyReq(100, span, "B", "t"),)),
    )
    mapping = {("A", "a0"): "R1", ("B", "b0"): "R1", ("B", "b1"): "R2" if variant == "two resources" else "R1"}
    order = (("A", "t"), ("B", "t")) + ((("B", "u"),) if variant == "two ranks" else ())
    return TaskGraph(NORMAL, chains), Configuration(frozenset("AB"), frozenset(), mapping, order)


@pytest.mark.parametrize("variant, horizon", [
    ("", 24), ("", 36), ("", 12), ("", 30), ("two resources", 24), ("two ranks", 24), ("inner span", 24),
])
def test_rule_4_needs_each_of_its_conditions(monkeypatch, variant, horizon):
    # rule 4 holds at every horizon, whole windows of W = 12 or not
    graph, cfg = _rule_4_group(variant)
    assert worst_observed(graph, cfg, horizon) == reference_worst_observed(graph, cfg, horizon)
    vectors = [(0, b) for b in range(6)]
    runs = _counting_runs(monkeypatch)
    worst_observed(graph, cfg, horizon)
    if variant:
        # rule 1: the zero run, then the max-first run, at every vector
        assert runs == [vector for vector in vectors for _ in range(2)]
    else:
        assert runs == _rule_4_runs(vectors)


# Three groups that break one condition of rule 4 each and that a sweep
# applying the rule regardless gets wrong: (chains, mapping, rank order,
# horizon, the span that sweep reads too short, its reading, the grid's).
_RULE_4_COUNTEREXAMPLES = {
    # Y's first task ends on R1 just as X is released on R2
    "two resources": (
        (_hand_chain("X", EventModel(10, 0), 3), _hand_chain("Y", EventModel(8, 1), 1, 1)),
        {("X", "x0"): "R2", ("Y", "y0"): "R1", ("Y", "y1"): "R2"},
        [("X", "t"), ("Y", "t")], 79, (("Y", "t"), (0, 2)), 4, 5,
    ),
    # each chain's second task runs on a second thread, ranked apart from
    # its first: C0.s1 > C1.t > C1.s1 > C0.t
    "two ranks": (
        tuple(
            Chain.of((name, "t"), NORMAL, (
                ((name, "a"), (name, "t"), 1, 1), ((name, "b"), (name, "s1"), 1, 1),
            ), EventModel(period, 0))
            for name, period in (("C0", 3), ("C1", 4))
        ),
        {(name, task): "R1" for name in ("C0", "C1") for task in "ab"},
        [("C0", "s1"), ("C1", "t"), ("C1", "s1"), ("C0", "t")], 24, (("C1", "t"), (0, 2)), 2, 3,
    ),
    # spans over each chain's second or third task, on an overloaded R1
    "inner span": (
        (
            _hand_chain("C0", EventModel(8, 5), 2, 1, 2, span=(1, 2)),
            _hand_chain("C1", EventModel(6, 0), 2, 1, 2, span=(2, 3)),
            _hand_chain("C2", EventModel(6, 4), 2, 1, 1, span=(1, 2)),
        ),
        {(name, f"{name.lower()}{i}"): "R1" for name in ("C0", "C1", "C2") for i in range(3)},
        [("C2", "t"), ("C1", "t"), ("C0", "t")], 48, (("C0", "t"), (1, 2)), 1, 73,
    ),
}


@pytest.mark.parametrize("variant", sorted(_RULE_4_COUNTEREXAMPLES))
def test_a_group_that_breaks_a_rule_4_condition_keeps_its_zero_runs(monkeypatch, variant):
    chains, mapping, order, horizon, span, short, seen = _RULE_4_COUNTEREXAMPLES[variant]
    graph = TaskGraph(NORMAL, chains)
    cfg = Configuration(frozenset(root for root, _ in order), frozenset(), mapping, tuple(order))
    assert len(nego.sim._Plan(graph, cfg).groups) == 1
    full = reference_worst_observed(graph, cfg, horizon)
    assert full[span] == seen
    runs = _counting_runs(monkeypatch)
    assert worst_observed(graph, cfg, horizon) == full
    # rule 1's zero run at every vector, and a max-first run after it with jitter
    vectors = list(itertools.product(*[range(1) if ci == 0 else range(c.event.period) for ci, c in enumerate(chains)]))
    jitter = any(chain.event.jitter for chain in chains)
    assert runs == [vector for vector in vectors for _ in range(1 + jitter)]
    # the sweep that takes the group for critical reads the span too short
    monkeypatch.setattr(nego.sim, "_critical", lambda graph, plan, group: True)
    assert worst_observed(graph, cfg, horizon)[span] == short


@pytest.mark.parametrize("wcets", [(2, 2, 1, 2), (1, 1, 1, 1)])
def test_a_critical_group_matches_the_engine_grid_walk_off_its_windows(wcets):
    # A over B (jitter 2, a span over its first task) over C (jitter 3) on
    # R1: at wcets (2, 2, 1, 2), utilization 1/2 + 1/2 + 2/5 = 7/5, so R1
    # falls ever further behind; at (1, 1, 1, 1), 11/20.  The horizons H - 1
    # and H + 1 hold no whole windows.
    a, b0, b1, c = wcets
    chains = (
        _hand_chain("A", EventModel(4, 0), a),
        _hand_chain("B", EventModel(6, 2), b0, b1, span=(0, 1)),
        _hand_chain("C", EventModel(5, 3), c),
    )
    mapping = {("A", "a0"): "R1", ("B", "b0"): "R1", ("B", "b1"): "R1", ("C", "c0"): "R1"}
    graph, cfg = _hand_system(chains, mapping, "ABC")
    plan = nego.sim._Plan(graph, cfg)
    assert nego.sim._critical(graph, plan, plan.groups[0])
    full = default_horizon(graph)
    for horizon in (full, full - 1, full + 1):
        assert worst_observed(graph, cfg, horizon) == engine_worst_observed(graph, cfg, horizon)


def _fork_on_one_resource(fork):
    """A (period 10) runs a and, with `fork`, signals B, whose entry thread
    runs b; X (period 20) runs x; all on R1, ranked A, B, X.  Without
    `fork`, B is a periodic chain of period 10 of its own."""
    b_thread = "thread e on RPC s.m()" if fork else "thread e on time (period=10 jitter=0)"
    texts = [
        "component A services requires s threads thread t on time (period=10 jitter=0) "
        "task a onto CPU wcet=2 bcet=1" + (" SIGNAL s.m()" if fork else ""),
        f"component B services provides s threads {b_thread} task b onto CPU wcet=3 bcet=1",
        "component X threads thread t on time (period=20 jitter=0) task x onto CPU wcet=4 bcet=1",
    ]
    software = load_software_model(texts, "service s method m ()")
    cfg = Configuration(
        frozenset("ABX"), frozenset({("A", "s", "B")}) if fork else frozenset(),
        {("A", "a"): "R1", ("B", "b"): "R1", ("X", "x"): "R1"},
        (("A", "t"), ("B", "e"), ("X", "t")),
    )
    return build_task_graph(software, cfg, NORMAL), cfg


@pytest.mark.parametrize("fork", [False, True])
def test_a_forked_chain_keeps_its_group_s_full_grid(monkeypatch, fork):
    # A anchors; B (period 10) and X (period 20) sweep 200 vectors.  Rule 4
    # leaves a fork group alone: the engine releases B on its own offset
    # axis, as `engine_worst_observed` does.
    graph, cfg = _fork_on_one_resource(fork)
    assert [chain.triggered_by is not None for chain in graph.chains] == [False, fork, False]
    full = default_horizon(graph)
    assert worst_observed(graph, cfg) == engine_worst_observed(graph, cfg, full)
    if not fork:
        assert worst_observed(graph, cfg) == reference_worst_observed(graph, cfg, full)
    vectors = [(0, b, x) for b in range(10) for x in range(20)]
    runs = _counting_runs(monkeypatch)
    worst_observed(graph, cfg)
    # without jitter, one zero run per vector, or the all-zero one alone
    assert runs == (vectors if fork else _rule_4_runs(vectors, jitter=False))


def _lone_chain_after(jitter, second_thread):
    """G (period 4, wcet 1) on R1, then F (period 4, jitter `jitter`) alone
    on R2: tasks f0 and f1 of wcet 1, the second run by `second_thread`,
    ranked after F's thread t."""
    g = _hand_chain("G", EventModel(4, 0), 1)
    tasks = ((("F", "f0"), ("F", "t"), 1, 1), (("F", "f1"), ("F", second_thread), 1, 1))
    f = Chain.of(("F", "t"), NORMAL, tasks, EventModel(4, jitter), (LatencyReq(100, (1, 2), "F", "t"),))
    mapping = {("G", "g0"): "R1", ("F", "f0"): "R2", ("F", "f1"): "R2"}
    order = tuple(sorted({("G", "t"), ("F", "t"), ("F", second_thread)}, key=lambda thread: thread != ("G", "t")))
    return TaskGraph(NORMAL, (g, f)), Configuration(frozenset("GF"), frozenset(), mapping, order)


@pytest.mark.parametrize("jitter", [2, 3])
@pytest.mark.parametrize("second_thread", ["t", "u"])
def test_a_lone_chain_runs_max_first_only_if_its_jitter_and_work_exceed_its_period(monkeypatch, jitter, second_thread):
    # F's work is 2: with jitter 2 its first job ends by 4 under either
    # pattern, alone, and from 4 on the patterns release alike (rule 2);
    # with jitter 3 it may end at 5, past F's second release
    graph, cfg = _lone_chain_after(jitter, second_thread)
    for horizon in (8, 16, 7, 3):
        assert worst_observed(graph, cfg, horizon) == reference_worst_observed(graph, cfg, horizon)
    runs = _counting_runs(monkeypatch)
    worst_observed(graph, cfg)
    # one rank: F at offset 0 only; two ranks: F sweeps its period
    offsets = range(1) if second_thread == "t" else range(4)
    patterns = 1 if jitter + 2 <= 4 else 2
    assert runs == [(0, 0)] + [(0, offset) for offset in offsets for _ in range(patterns)]


def test_the_sweep_matches_the_full_grid_on_fork_systems():
    # `random_fork_system` seeds whose grid holds at most 100 offset
    # vectors; the engine releases a forked chain on its own offset axis,
    # so the reference is its own full grid walk
    systems = forked = 0
    for seed in range(80):
        system = random_fork_system(random.Random(seed))
        graph = build_task_graph(system.software, system.config, NORMAL)
        if math.prod(chain.event.period for chain in graph.chains[1:]) > 100:
            continue
        systems += 1
        forked += any(chain.triggered_by is not None for chain in graph.chains)
        full = default_horizon(graph)
        for horizon in (full, 2 * full, full - 1):
            assert worst_observed(graph, system.config, horizon) == engine_worst_observed(graph, system.config, horizon)
    assert systems >= 25 and forked >= 10


def _coprime_lone_chains(second_rank):
    """Chains A, B and C of periods 97, 101 and 103, alone on R1, R2 and R3:
    one task of wcet 2 each, and with `second_rank` a second task of wcet 1
    run by a second thread of the component, ranked after every first one."""
    chains, mapping, order = [], {}, [(name, "t") for name in "ABC"]
    for name, period, resource in zip("ABC", (97, 101, 103), ("R1", "R2", "R3")):
        tasks = [((name, "x"), (name, "t"), 2, 1)]
        if second_rank:
            tasks.append(((name, "y"), (name, "u"), 1, 1))
            order.append((name, "u"))
        chains.append(Chain.of((name, "t"), NORMAL, tasks, EventModel(period, 0)))
        mapping.update({task: resource for task, _, _, _ in tasks})
    cfg = Configuration(frozenset("ABC"), frozenset(), mapping, tuple(order))
    return TaskGraph(NORMAL, tuple(chains)), cfg


@pytest.mark.parametrize(
    "second_rank, horizon, runs",
    [
        # every chain is alone with one rank: offset 0 each (lone-chain rule)
        (False, None, 3),
        # a second rank: B and C sweep their periods, 1 + 101 + 103 runs;
        # the default horizon would release 101 * 19982 jobs in B's sweep
        (True, 1000, 205),
    ],
)
def test_the_sweep_caps_count_each_group_s_own_grid(monkeypatch, second_rank, horizon, runs):
    # The product of the offset axes, 101 * 103 = 10403, is over MAX_GRID;
    # the sweep visits each group's own grid, and so do the caps.
    graph, cfg = _coprime_lone_chains(second_rank)
    assert len(nego.sim._Plan(graph, cfg).groups) == 3
    ran = _counting_runs(monkeypatch)
    stop, latency = (2, 3) if second_rank else (1, 2)  # each chain alone: its own WCET
    assert worst_observed(graph, cfg, horizon) == {((name, "t"), (0, stop)): latency for name in "ABC"}
    assert len(ran) == runs


def test_a_chain_spanning_two_resources_merges_their_groups(monkeypatch):
    graph, cfg = _three_groups(merged=True)
    assert len(nego.sim._Plan(graph, cfg).groups) == 1
    assert worst_observed(graph, cfg) == reference_worst_observed(graph, cfg, default_horizon(graph))
    runs = _counting_runs(monkeypatch)
    worst_observed(graph, cfg)
    assert len(runs) == 6 * 4 * 6 * 2


def test_a_forked_chain_joins_its_triggers_group(monkeypatch):
    # the fork graph of the reference test above: H and A on R1, B and X on
    # R2, so only A's signal to B joins the two resources' chains
    graph, cfg = _fork_graph()
    assert len(nego.sim._Plan(graph, cfg).groups) == 1
    runs = _counting_runs(monkeypatch)
    worst_observed(graph, cfg)
    # A anchors; B (period 10), H and X (period 20) sweep, without jitter
    assert len(runs) == 10 * 20 * 20


def _carry_over():
    """C1 (period 20) on R2, under C2 (period 10) on R1, then R2."""
    chains = (_hand_chain("C1", EventModel(20, 0), 1), _hand_chain("C2", EventModel(10, 0), 1, 2))
    return _hand_system(chains, {("C1", "c10"): "R2", ("C2", "c20"): "R1", ("C2", "c21"): "R2"}, ["C2", "C1"])


def _window_run(graph, cfg, offsets, pattern, window):
    """One `sim._run` of the whole graph at `offsets` over the default
    horizon with the stop at an idle `window`, as `worst_observed` gives a
    zero run: the jobs it released and the maxima it saw."""
    plan = nego.sim._Plan(graph, cfg)
    maxima = [-1] * len(plan.keys)
    draws = nego.sim._pattern_draws(graph, pattern)
    until = ([window, window], 0, window - 1)
    jobs = nego.sim._run(plan, offsets, draws, default_horizon(graph), plan.chains, maxima, None, None, until)
    return jobs, dict(zip(plan.keys, maxima))


def test_a_run_busy_at_its_hyperperiod_goes_on_to_the_horizon(monkeypatch):
    graph, cfg = _carry_over()
    c1 = (("C1", "t"), (0, 1))
    assert worst_observed(graph, cfg) == reference_worst_observed(graph, cfg, 40)
    assert worst_observed(graph, cfg)[c1] == 3
    # C1's job at 20 waits for C2's job released at 19, on R2 from 20 to
    # 22; no other offset of C2 delays C1 by 2
    for offset in range(10):
        seen = simulate(graph, cfg, ReleaseScenario((0, offset), ((), ()), 40)).latencies[c1]
        assert seen == [1, 3 if offset == 9 else 2 if offset == 8 else 1]
    # the run at offset 9 releases C2's jobs at 29 and 39 as well, and runs
    # every job it releases to completion
    jobs, maxima = _window_run(graph, cfg, (0, 9), "zero", 20)
    activations = sorted((job[nego.sim._CHAIN], job[nego.sim._ACTIVATION]) for job in jobs)
    assert activations == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (1, 3)]
    assert all(len(job[nego.sim._DONE]) == len(job[nego.sim._SEGMENTS]) + 1 for job in jobs)
    assert maxima[c1] == 3
    built = []
    runs = _counting_runs(monkeypatch, built)
    worst_observed(graph, cfg)
    # C2's job released at 18 or 19 is still on R2 at 20; every other run
    # is idle there and releases only the 3 jobs released before it
    assert runs == [(0, offset) for offset in range(10)]
    assert built == [3] * 8 + [6, 6]


def test_a_max_first_run_stops_only_where_the_zero_run_stops(monkeypatch):
    # H (jitter 3) on R1 over M on R2 over L, on R1 then R2.  Released at 0,
    # H delays L on R1 to 5, where M takes R2 until 9 and L ends at 12, past
    # the hyperperiod 10.  Released at 3, H leaves L on R2 from 3, and L
    # ends at 10.
    chains = (
        _hand_chain("H", EventModel(10, 3), 2),
        _hand_chain("L", EventModel(10, 0), 3, 3),
        _hand_chain("M", EventModel(10, 0), 4),
    )
    mapping = {("H", "h0"): "R1", ("L", "l0"): "R1", ("L", "l1"): "R2", ("M", "m0"): "R2"}
    graph, cfg = _hand_system(chains, mapping, "HML")
    assert len(nego.sim._Plan(graph, cfg).groups) == 1
    assert worst_observed(graph, cfg) == reference_worst_observed(graph, cfg, 20)
    assert len(_window_run(graph, cfg, (0, 0, 5), "zero", 10)[0]) == 6
    # the max-first run is idle at 10: the W stop would end it there
    assert len(_window_run(graph, cfg, (0, 0, 5), "max-first", 10)[0]) == 3
    built = []
    runs = _counting_runs(monkeypatch, built)
    worst_observed(graph, cfg)
    at = runs.index((0, 0, 5))
    # but a max-first run gets no W stop: it follows the zero run, which is
    # busy at 10 and never idle again while the max-first run is, so it
    # releases the later jobs too
    assert runs[at : at + 2] == [(0, 0, 5)] * 2
    assert built[at : at + 2] == [6, 6]


def test_a_max_first_run_whose_jitter_releases_at_or_after_the_hyperperiod_does_not_stop(monkeypatch):
    # A over B (jitter 3) on R1, both of period 4: the all-zero run is idle
    # at 4, and B's max-first job at offset o is released at o + 3
    chains = (_hand_chain("A", EventModel(4, 0), 1), _hand_chain("B", EventModel(4, 3), 1))
    graph, cfg = _hand_system(chains, {("A", "a0"): "R1", ("B", "b0"): "R1"}, "AB")
    for horizon in (8, 16, 7, 10):
        assert worst_observed(graph, cfg, horizon) == reference_worst_observed(graph, cfg, horizon)
    built = []
    runs = _counting_runs(monkeypatch, built)
    worst_observed(graph, cfg)
    assert runs == _rule_4_runs([(0, offset) for offset in range(4)])
    # the zero run stops idle at W = 4 after A's and B's jobs at 0.  A
    # max-first run never stops at W: it stops at its first idle instant
    # after B's drawn release at o + 3 (rule 4).  At offset 0 that is 4,
    # after 2 jobs; at offset 1, B's jobs run from 4 to 7 and no idle
    # instant comes before the horizon, so it releases all 4; at offsets 2
    # and 3, B's first job ends at 6 and 7, just as B's second is released,
    # so it stops there after 3
    assert built == [2, 2, 4, 3, 3]


def test_a_max_first_run_rejoins_only_after_its_drawn_releases():
    # C0 (period 8, work 3) over C1 (period 4, jitter 3, work 2) on R1.  At
    # C1's offset 3 both runs are idle at 6, where C1's max-first job is
    # released: a stop there would miss that job, which waits for C1's next
    # one and C0's second, and ends at 13, 6 after its release at 7.
    chains = (
        _hand_chain("C0", EventModel(8, 0), 2, 1),
        _hand_chain("C1", EventModel(4, 3), 1, 1, span=(0, 2)),
    )
    mapping = {("C0", "c00"): "R1", ("C0", "c01"): "R1", ("C1", "c10"): "R1", ("C1", "c11"): "R1"}
    graph, cfg = _hand_system(chains, mapping, ["C0", "C1"])
    for horizon in (16, 32, 15):
        assert worst_observed(graph, cfg, horizon) == reference_worst_observed(graph, cfg, horizon)
    assert worst_observed(graph, cfg)[(("C1", "t"), (0, 2))] == 6


def test_a_group_with_a_one_shot_chain_runs_to_the_horizon(monkeypatch):
    graph, cfg = _three_groups(merged=True)
    built = []
    _counting_runs(monkeypatch, built)
    worst_observed(graph, cfg)
    # every zero run releases A's 2, B's 4, C's 6, D's 4 and E's 1 jobs over
    # the horizon 24; each max-first run rejoins its zero run before 12, so
    # it releases at most the 1 + 2 + 3 + 2 + 1 jobs released before 12
    assert built[0::2] == [17] * (6 * 4 * 6)
    assert max(built[1::2]) == 9


def _systems_over(seeds, resources=3):
    """`random_chain_system` seeds with the mapping drawn again over R1 to
    R`resources` and the priority order shuffled, from the seed."""
    names = [f"R{i + 1}" for i in range(resources)]
    for seed in seeds:
        system = random_chain_system(random.Random(seed))
        graph = build_task_graph(system.software, system.config, NORMAL)
        rng = random.Random(seed)
        mapping = {task: rng.choice(names) for task in sorted(system.config.mapping)}
        order = list(system.config.priorities)
        rng.shuffle(order)
        yield graph, Configuration(system.config.selected, system.config.connections, mapping, tuple(order)), rng


def test_worst_observed_matches_grid_walk_over_three_resources():
    # more than half the systems have a single chain; 53 of these 300 split
    # into two or more groups
    split = 0
    for graph, cfg, rng in _systems_over(range(300)):
        split += len(nego.sim._Plan(graph, cfg).groups) > 1
        horizon = rng.randint(1, default_horizon(graph))
        assert worst_observed(graph, cfg, horizon) == reference_worst_observed(graph, cfg, horizon)
    assert split >= 40


# zero runs of `test_runs_that_stop_at_an_idle_hyperperiod_match_the_grid_walk`
# that stop idle at W, per resource count
_ZERO_RUNS_STOPPED_AT_W = {1: 172, 2: 658, 3: 746, 4: 638}


@pytest.mark.parametrize("resources", [1, 2, 3, 4])
def test_runs_that_stop_at_an_idle_hyperperiod_match_the_grid_walk(monkeypatch, resources):
    # Systems with jitter, at the default horizon and at twice it, where a
    # zero run may stop at its group's hyperperiod, and one unit below the
    # default, a multiple of no hyperperiod, where none may.  A run stops
    # early when it releases fewer jobs than its chains' activations before
    # the horizon; a zero run only stops at W.
    stops = []
    run = nego.sim._run

    def recording(plan, offsets, draws, horizon, chains, *rest):
        jobs = run(plan, offsets, draws, horizon, chains, *rest)
        static = sum(len(range(offsets[ci], horizon, event.period)) if event else 1 for ci, event, _, _ in chains)
        zero = not any(draws[ci] for ci, _, _, _ in chains)
        stops.append((zero, len(jobs) < static))
        return jobs

    monkeypatch.setattr(nego.sim, "_run", recording)
    systems = 0
    for graph, cfg, _ in _systems_over(range(100), resources):
        if not any(chain.event.jitter for chain in graph.chains):
            continue
        systems += 1
        full = default_horizon(graph)
        for horizon in (full, 2 * full, full - 1):
            assert worst_observed(graph, cfg, horizon) == reference_worst_observed(graph, cfg, horizon)
    # 86 systems; over 1500 runs stopped early at each resource count
    assert systems >= 60 and sum(stopped for _, stopped in stops) >= 800
    assert sum(stopped for zero, stopped in stops if zero) == _ZERO_RUNS_STOPPED_AT_W[resources]


def _completing_runs(monkeypatch):
    """Record, for every `sim._run` call, whether every job it returns has
    completed all its segments."""
    complete = []
    run = nego.sim._run

    def checking(*args):
        jobs = run(*args)
        complete.append(all(len(job[nego.sim._DONE]) == len(job[nego.sim._SEGMENTS]) + 1 for job in jobs))
        return jobs

    monkeypatch.setattr(nego.sim, "_run", checking)
    return complete


@pytest.mark.parametrize("resources", [1, 2, 3, 4])
def test_every_job_a_sweep_run_returns_has_completed(monkeypatch, resources):
    # a run builds only the jobs it releases, and stops only where it is
    # idle, so no run hands back a job it has not run to its end
    complete = _completing_runs(monkeypatch)
    for graph, cfg, _ in _systems_over(range(100), resources):
        full = default_horizon(graph)
        for horizon in (full, 2 * full, full - 1):
            worst_observed(graph, cfg, horizon)
    assert len(complete) >= 1500 and all(complete)


def test_every_job_a_sweep_run_of_a_hand_built_group_returns_has_completed(monkeypatch):
    systems = [
        _three_groups(), _three_groups(merged=True), _with_lone_chain(), _with_lone_chain(second_thread="u"),
        _carry_over(), _fork_graph(), _fork_on_one_resource(True), _lone_chain_after(3, "u"),
        *[_rule_4_group(variant) for variant in ("", "two resources", "two ranks", "inner span")],
    ]
    for chains, mapping, order, horizon, *_ in _RULE_4_COUNTEREXAMPLES.values():
        cfg = Configuration(frozenset(root for root, _ in order), frozenset(), mapping, tuple(order))
        systems.append((TaskGraph(NORMAL, chains), cfg))
    complete = _completing_runs(monkeypatch)
    for graph, cfg in systems:
        full = default_horizon(graph)
        for horizon in (full, full - 1):
            worst_observed(graph, cfg, horizon)
    assert len(complete) >= 1000 and all(complete)


def test_latencies_stay_in_activation_order_when_draws_swap_releases():
    # A (period 4, jitter 6, wcet 2): the draws 5 and 0 release job 0 at 5,
    # after job 1 at 4, so job 0 waits until 6 and ends at 8
    graph, cfg = _hand_system([_hand_chain("A", EventModel(4, 6), 2)], {("A", "a0"): "R1"}, "A")
    scenario = ReleaseScenario((0,), ((5, 0),), 12)
    result = simulate(graph, cfg, scenario, trace=True)
    assert result.latencies == {(("A", "t"), (0, 1)): [3, 2, 2]}
    assert list(result.latencies.items()) == list(reference_simulate(graph, cfg, scenario)[0].items())
    assert result.trace[:3] == ("t=4 release A.t#1", "t=5 release A.t#0", "t=8 release A.t#2")


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
