import itertools
import random
from fractions import Fraction

import pytest

from nego.constraints import (
    ConnLit,
    ForbidConjunction,
    MapLit,
    PriorityNogood,
    PriorityPrecedence,
)
from nego.dsl import load_software_model
from nego.model import Accepted, Configuration, parse_platform
from nego.negotiation import negotiate
from nego.randsys import random_chain_system, random_software_system
from nego.taskgraph import INITIALIZATION, MODES, NORMAL, EventModel, build_task_graph
from nego.timing import (
    BUSY_WINDOW,
    MODELS,
    SINGLE_BLOCKING,
    TimingContext,
    _busy_window,
    chain_latency_bound,
    check_timing,
    seed_order,
    synthesize_priorities,
    utilization,
)

import systems
from conftest import ACCEPTED_ORDER, CONNS_LANE_ON_O2, LEX_ORDER, POST_MAPPING, POST_SELECTED
from oracles import _completions, _structures, _task_types, chain_utilization, reference_synthesize

LANE = ("L", "lane_assist")
OMG = ("O2", "object_masking_get")
ORG2 = ("O2", "object_recognition_get")
ORG1 = ("O1", "object_recognition_get")
STEER = ("S", "steering_setAngle")
PARK = ("P", "park_assist")
TCG = ("T", "trajectory_calculation_get")
INIT = ("P", "init")
TCI = ("T", "trajectory_calculation_init")

# order found by the third candidate of the busy-window run
PI3 = (LANE, OMG, ORG2, TCG, STEER, ORG1, PARK, INIT, TCI)


def bounds_by_target(report):
    return {v.target: (v.computed, v.passed) for v in report.verdicts}


# ---------------------------------------------------------------------------
# utilization


def test_pre_update_utilization(software_pre, current_config, platform):
    graph = build_task_graph(software_pre, current_config, NORMAL)
    assert utilization(graph, current_config, platform) == {"CPU1": Fraction(3, 20)}


def test_post_update_utilization_lane_on_o1(software_post, cfg_lane_on_o1, platform):
    graph = build_task_graph(software_post, cfg_lane_on_o1, NORMAL)
    assert utilization(graph, cfg_lane_on_o1, platform) == {"CPU1": Fraction(21, 20)}
    per_chain = {c.root: chain_utilization(c, cfg_lane_on_o1) for c in graph.chains}
    assert per_chain[LANE] == {"CPU1": Fraction(9, 10)}
    assert per_chain[PARK] == {"CPU1": Fraction(3, 20)}


def test_post_update_utilization_lane_on_o2(software_post, cfg_lane_on_o2_lex, platform):
    graph = build_task_graph(software_post, cfg_lane_on_o2_lex, NORMAL)
    assert utilization(graph, cfg_lane_on_o2_lex, platform) == {"CPU1": Fraction(17, 20)}


def test_overload_verdict_and_forbid(software_post, cfg_lane_on_o1, platform):
    graph = build_task_graph(software_post, cfg_lane_on_o1, NORMAL)
    report = check_timing(TimingContext(graph, cfg_lane_on_o1, platform), cfg_lane_on_o1, BUSY_WINDOW)
    assert not report.ok
    assert report.verdicts == ()
    assert report.lines()[0] == "utilization CPU1: 21/20 OVERLOAD"
    assert len(report.constraints) == 1
    forbid = report.constraints[0]
    assert isinstance(forbid, ForbidConjunction)
    expected = {ConnLit(*edge) for edge in cfg_lane_on_o1.connections}
    expected |= {
        MapLit(c, t, "CPU1") for c, t in POST_MAPPING if (c, t) != ("T", "tci")
    }
    assert forbid.literals == frozenset(expected)
    assert len(forbid.literals) == 17


# ---------------------------------------------------------------------------
# latency bounds on the example system


def test_pre_update_passes_both_models(software_pre, current_config, platform):
    graph = build_task_graph(software_pre, current_config, NORMAL)
    for model in (BUSY_WINDOW, SINGLE_BLOCKING):
        report = check_timing(TimingContext(graph, current_config, platform), current_config, model)
        assert report.ok
        assert bounds_by_target(report) == {
            "park_assist": (30, True),
            "object_recognition.get()": (10, True),
        }


def test_pre_update_report_lines(software_pre, current_config, platform):
    graph = build_task_graph(software_pre, current_config, NORMAL)
    report = check_timing(TimingContext(graph, current_config, platform), current_config, BUSY_WINDOW)
    assert report.lines() == [
        "utilization CPU1: 3/20 OK",
        "timing 150 park_assist: bound=30 PASS model=busy-window",
        "timing 100 object_recognition.get(): bound=10 PASS model=busy-window",
    ]


def test_init_mode_report(software_pre, current_config, platform):
    graph = build_task_graph(software_pre, current_config, INITIALIZATION)
    report = check_timing(TimingContext(graph, current_config, platform), current_config, BUSY_WINDOW)
    assert report.ok
    assert report.lines() == [
        "utilization CPU1: 0 OK",
        "timing inf P.init: bound=10 PASS model=busy-window",
    ]


def test_lex_candidate_single_blocking(software_post, cfg_lane_on_o2_lex, platform):
    graph = build_task_graph(software_post, cfg_lane_on_o2_lex, NORMAL)
    report = check_timing(
        TimingContext(graph, cfg_lane_on_o2_lex, platform), cfg_lane_on_o2_lex, SINGLE_BLOCKING
    )
    assert report.lines() == [
        "utilization CPU1: 17/20 OK",
        "timing 75 lane_assist: bound=110 FAIL model=single-blocking",
        "timing 150 park_assist: bound=120 PASS model=single-blocking",
        "timing 100 object_recognition.get(): bound=70 PASS model=single-blocking",
    ]


def test_lex_candidate_busy_window(software_post, cfg_lane_on_o2_lex, platform):
    graph = build_task_graph(software_post, cfg_lane_on_o2_lex, NORMAL)
    report = check_timing(TimingContext(graph, cfg_lane_on_o2_lex, platform), cfg_lane_on_o2_lex, BUSY_WINDOW)
    assert bounds_by_target(report) == {
        "lane_assist": (110, False),
        "park_assist": (170, False),
        "object_recognition.get()": (70, True),
    }


def test_accepted_candidate_single_blocking(software_post, cfg_accepted, platform):
    graph = build_task_graph(software_post, cfg_accepted, NORMAL)
    report = check_timing(TimingContext(graph, cfg_accepted, platform), cfg_accepted, SINGLE_BLOCKING)
    assert report.ok
    assert bounds_by_target(report) == {
        "lane_assist": (50, True),
        "park_assist": (120, True),
        "object_recognition.get()": (100, True),
    }


def test_accepted_candidate_fails_busy_window(software_post, cfg_accepted, platform):
    # the busy-window model charges the second lane activation to park
    graph = build_task_graph(software_post, cfg_accepted, NORMAL)
    report = check_timing(TimingContext(graph, cfg_accepted, platform), cfg_accepted, BUSY_WINDOW)
    assert not report.ok
    assert bounds_by_target(report) == {
        "lane_assist": (50, True),
        "park_assist": (170, False),
        "object_recognition.get()": (150, False),
    }


def test_pi3_busy_window(software_post, platform):
    cfg = Configuration(POST_SELECTED, CONNS_LANE_ON_O2, POST_MAPPING, PI3)
    graph = build_task_graph(software_post, cfg, NORMAL)
    report = check_timing(TimingContext(graph, cfg, platform), cfg, BUSY_WINDOW)
    assert bounds_by_target(report) == {
        "lane_assist": (60, True),
        "park_assist": (170, False),
        "object_recognition.get()": (150, False),
    }


# ---------------------------------------------------------------------------
# feedback constraints


SB_CONTEXT_TASKS = [
    ("L", "la1"), ("L", "la2"), ("L", "la3"), ("L", "la4"),
    ("O1", "or1"), ("O2", "om"), ("O2", "or2"),
    ("P", "p1"), ("P", "p2"), ("S", "s"),
]


def expected_lane_feedback():
    context = frozenset(
        {ConnLit(*edge) for edge in CONNS_LANE_ON_O2}
        | {MapLit(c, t, "CPU1") for c, t in SB_CONTEXT_TASKS}
    )
    general = PriorityNogood(context, frozenset({(ORG1, STEER), (PARK, STEER)}))
    singles = [
        PriorityNogood(context, frozenset({(ORG1, below)}))
        for below in (LANE, OMG, ORG2, STEER)
    ]
    return {general, *singles}


def test_lane_failure_feedback_single_blocking(software_post, cfg_lane_on_o2_lex, platform):
    graph = build_task_graph(software_post, cfg_lane_on_o2_lex, NORMAL)
    report = check_timing(
        TimingContext(graph, cfg_lane_on_o2_lex, platform), cfg_lane_on_o2_lex, SINGLE_BLOCKING
    )
    assert set(report.constraints) == expected_lane_feedback()
    assert len(report.constraints) == 5


def test_busy_window_adds_park_feedback(software_post, cfg_lane_on_o2_lex, platform):
    graph = build_task_graph(software_post, cfg_lane_on_o2_lex, NORMAL)
    report = check_timing(TimingContext(graph, cfg_lane_on_o2_lex, platform), cfg_lane_on_o2_lex, BUSY_WINDOW)
    park_context = frozenset(
        {ConnLit(*edge) for edge in CONNS_LANE_ON_O2}
        | {MapLit(c, t, "CPU1") for c, t in POST_MAPPING if (c, t) != ("T", "tci")}
    )
    park_nogood = PriorityNogood(
        park_context, frozenset({(LANE, TCG), (OMG, TCG), (ORG2, TCG), (STEER, TCG)})
    )
    assert set(report.constraints) == expected_lane_feedback() | {park_nogood}


def test_structural_feedback_when_range_alone_exceeds_bound():
    software = load_software_model(
        ["component CX threads thread tx on time (period=10 jitter=0) "
         "task x onto CPU wcet=5 bcet=1 timings timing 3 tx"],
        "",
    )
    cfg = Configuration(frozenset({"CX"}), frozenset(), {("CX", "x"): "R1"}, ((("CX", "tx")),))
    platform = parse_platform("resource R1 type CPU")
    graph = build_task_graph(software, cfg, NORMAL)
    report = check_timing(TimingContext(graph, cfg, platform), cfg, SINGLE_BLOCKING)
    assert report.constraints == (
        ForbidConjunction(frozenset({MapLit("CX", "x", "R1")})),
    )


# ---------------------------------------------------------------------------
# multi-activation interference


def _two_periodic(period_a, wcet_a, period_b, wcet_b):
    texts = [
        f"component CA threads thread ta on time (period={period_a} jitter=0) "
        f"task a onto CPU wcet={wcet_a} bcet=1",
        f"component CB threads thread tb on time (period={period_b} jitter=0) "
        f"task b onto CPU wcet={wcet_b} bcet=1",
    ]
    software = load_software_model(texts, "")
    cfg = Configuration(
        frozenset({"CA", "CB"}), frozenset(),
        {("CA", "a"): "R1", ("CB", "b"): "R1"},
        (("CA", "ta"), ("CB", "tb")),
    )
    return software, cfg


def test_second_activation_dominates():
    # B's second job inherits queued backlog; one-blocking misses that
    software, cfg = _two_periodic(12, 7, 5, 2)
    graph = build_task_graph(software, cfg, NORMAL)
    chain_b = graph.chain(("CB", "tb"))
    ranks = cfg.ranks()
    span = (0, 1)
    assert chain_latency_bound(chain_b, span, graph, cfg, ranks, SINGLE_BLOCKING) == 9
    assert chain_latency_bound(chain_b, span, graph, cfg, ranks, BUSY_WINDOW) == 10


def test_unclosed_busy_window_is_unbounded():
    software, cfg = _two_periodic(5, 7, 100, 1)
    graph = build_task_graph(software, cfg, NORMAL)
    chain_b = graph.chain(("CB", "tb"))
    ranks = cfg.ranks()
    assert chain_latency_bound(chain_b, (0, 1), graph, cfg, ranks, SINGLE_BLOCKING) == 8
    assert chain_latency_bound(chain_b, (0, 1), graph, cfg, ranks, BUSY_WINDOW) is None


def test_busy_window_iteration_cap_is_exact_at_its_boundary():
    # WCET 6 every 10 under 8 every 20: the first window, 14, outgrows the
    # period, and the second activation's window, 20, closes it.  Each fixed
    # point takes two iterations, and the busy period two activations, so
    # cap 1 gives up and cap 2 is the smallest that reaches the bound.
    interference = [(EventModel(20, 0), 8)]
    assert _busy_window(EventModel(10, 0), 6, interference, 1) is None
    assert _busy_window(EventModel(10, 0), 6, interference, 2) == 14
    assert _busy_window(EventModel(10, 0), 6, interference, 3) == 14


def test_unknown_model_rejected(software_pre, current_config):
    graph = build_task_graph(software_pre, current_config, NORMAL)
    chain = graph.chains[0]
    with pytest.raises(ValueError):
        chain_latency_bound(chain, (0, 1), graph, current_config, current_config.ranks(), "exact")


def test_check_timing_rejects_unknown_model(software_pre, current_config, software_post, cfg_lane_on_o1, platform):
    # the second context is overloaded, so no latency is bounded there
    for software, cfg in ((software_pre, current_config), (software_post, cfg_lane_on_o1)):
        context = TimingContext(build_task_graph(software, cfg, NORMAL), cfg, platform)
        with pytest.raises(ValueError, match="unknown interference model 'single_blocking'"):
            check_timing(context, cfg, "single_blocking")


def test_requirement_on_entry_thread_without_tasks_is_bounded_by_zero():
    # the span of s.m() in A's chain holds no task: both the index and the
    # one-span bound give 0
    texts = [
        "component A services requires s threads thread t on time (period=20 jitter=0) "
        "task a onto R wcet=2 bcet=1 RPC s.m() timings timing 10 s.m()",
        "component B services provides s threads thread e on RPC s.m()",
    ]
    software = load_software_model(texts, "service s method m ()")
    cfg = Configuration(
        frozenset({"A", "B"}), frozenset({("A", "s", "B")}), {("A", "a"): "R1"}, (("A", "t"), ("B", "e"))
    )
    graph = build_task_graph(software, cfg, NORMAL)
    platform = parse_platform("resource R1 type R")
    chain = graph.chain(("A", "t"))
    (req,) = chain.requirements
    for model in MODELS:
        assert check_timing(TimingContext(graph, cfg, platform), cfg, model).lines() == [
            "utilization R1: 1/10 OK",
            f"timing 10 s.m(): bound=0 PASS model={model}",
        ]
        assert chain_latency_bound(chain, req.span, graph, cfg, cfg.ranks(), model) == 0


def test_activation_count_is_exact_beyond_float_precision():
    # (3 * 2**54 + 1) / 3 rounds down to 2**54 in floating point
    assert EventModel(3, 0).eta(3 * 2**54 + 1) == 2**54 + 1
    assert EventModel(3, 1).eta(3 * 2**54) == 2**54 + 1
    assert EventModel(3, 0).eta(3 * 2**54) == 2**54


# ---------------------------------------------------------------------------
# the grouped demand of check_timing against the per-span pass


def _assert_paths_agree(software, cfg, platform):
    """Every chain, in both modes and under both models: `check_timing`
    reports each requirement span (the whole chain when it states none) as
    `chain_latency_bound` bounds it.  Returns how many of every chain's
    spans, whole chain and requirements, saw interference."""
    ranks = cfg.ranks()
    interfered = 0
    for mode in MODES:
        graph = build_task_graph(software, cfg, mode)
        context = TimingContext(graph, cfg, platform)
        for model in MODELS:
            rows = []
            for chain in graph.chains:
                spans = {(0, len(chain.task_ids))} | {req.span for req in chain.requirements}
                for span in sorted(spans):
                    bound = chain_latency_bound(chain, span, graph, cfg, ranks, model)
                    interfered += bound is None or bound > sum(chain.wcets[span[0] : span[1]])
                if chain.task_ids:
                    reported = [req.span for req in chain.requirements] or [(0, len(chain.task_ids))]
                    rows += [chain_latency_bound(chain, span, graph, cfg, ranks, model) for span in reported]
            report = check_timing(context, cfg, model)
            assert [v.computed for v in report.verdicts] == rows, (mode, model)
    return interfered


def test_indexed_demand_agrees_on_random_chain_systems():
    platform = parse_platform("resource R1 type CPU\nresource R2 type CPU\nresource R3 type CPU\n")
    interfered = 0
    for seed in range(150):
        system = random_chain_system(random.Random(seed))
        rng = random.Random(seed)
        for count in (1, 2, 3):
            resources = [f"R{i + 1}" for i in range(count)]
            mapping = {task: rng.choice(resources) for task in sorted(system.config.mapping)}
            order = list(system.config.priorities)
            rng.shuffle(order)
            cfg = Configuration(system.config.selected, system.config.connections, mapping, tuple(order))
            interfered += _assert_paths_agree(system.software, cfg, platform)
    assert interfered >= 300


# A: periodic with jitter; calls B (an RPC span on R1 and R2) and forks C by
# SIGNAL, so C's chain shares A's event model; D: a second event model on
# the same resources.  A and D also have initialization threads.
FORK_TEXTS = [
    "component A services requires r requires s threads "
    "thread t on time (period=20 jitter=2) task a1 onto CPU wcet=2 bcet=1 RPC r.get() "
    "SIGNAL s.m() task a2 onto CPU wcet=1 bcet=1 "
    "thread boot on initialization task a0 onto CPU wcet=2 bcet=1 "
    "timings timing 15 t timing 9 r.get() timing 12 s.m()",
    "component B services provides r threads "
    "thread serve on RPC r.get() task b1 onto CPU wcet=2 bcet=1 task b2 onto CPU wcet=1 bcet=1 "
    "timings timing 5 serve",
    "component C services provides s threads thread handle on RPC s.m() task c onto CPU wcet=3 bcet=1",
    "component D threads thread t on time (period=10 jitter=1) "
    "task d1 onto CPU wcet=2 bcet=1 task d2 onto CPU wcet=1 bcet=1 "
    "thread boot on initialization task d0 onto CPU wcet=1 bcet=1",
]


def test_indexed_demand_agrees_on_forks_jitter_and_two_resources():
    software = load_software_model(FORK_TEXTS, "service r method get () service s method m ()")
    platform = parse_platform("resource R1 type CPU\nresource R2 type CPU\n")
    split = {
        ("A", "a0"): "R1", ("A", "a1"): "R1", ("A", "a2"): "R2", ("B", "b1"): "R1",
        ("B", "b2"): "R2", ("C", "c"): "R1", ("D", "d0"): "R2", ("D", "d1"): "R1", ("D", "d2"): "R2",
    }
    threads = [("A", "t"), ("A", "boot"), ("B", "serve"), ("C", "handle"), ("D", "t"), ("D", "boot")]
    interfered = 0
    for mapping in (split, dict.fromkeys(split, "R1")):
        for order in itertools.permutations(threads):
            cfg = Configuration(
                frozenset("ABCD"), frozenset({("A", "r", "B"), ("A", "s", "C")}), mapping, order
            )
            interfered += _assert_paths_agree(software, cfg, platform)
    assert interfered >= 1000
    graph = build_task_graph(software, cfg, NORMAL)
    assert graph.chain(("C", "handle")).event == graph.chain(("A", "t")).event
    assert {req.target for req in graph.chain(("A", "t")).requirements} == {"t", "r.get()", "serve"}


def _eta_calls(monkeypatch, n):
    """`EventModel.eta` calls of one busy-window `check_timing` on the
    accepted configuration of indep(n, 1, 2, 40n, 40n, 5)."""
    system = systems.indep(n, 1, 2, 40 * n, 40 * n, 5)
    answer, _ = negotiate(system, [])
    graph = build_task_graph(system.software, answer.config, NORMAL)
    calls = 0
    eta = EventModel.eta

    def counting(self, window):
        nonlocal calls
        calls += 1
        return eta(self, window)

    with monkeypatch.context() as patch:
        patch.setattr(EventModel, "eta", counting)
        check_timing(TimingContext(graph, answer.config, system.platform), answer.config, BUSY_WINDOW)
    return calls


def test_wide_system_costs_linear_activation_counts(monkeypatch):
    # one event model, so each busy-window step evaluates eta once per span,
    # not once per interfering chain
    small, large = _eta_calls(monkeypatch, 100), _eta_calls(monkeypatch, 400)
    assert small <= 4 * 100 and large <= 4 * 400
    assert large <= 5 * small


def test_wide_system_negotiates():
    answer, trace = negotiate(systems.indep(1000, 1, 2, 40000, 40000, 5), [])
    assert isinstance(answer, Accepted)
    assert trace.candidates == 1


# ---------------------------------------------------------------------------
# priority synthesis


def _post_graphs(software_post, cfg):
    return [build_task_graph(software_post, cfg, NORMAL), build_task_graph(software_post, cfg, INITIALIZATION)]


def test_unconstrained_synthesis_is_deadline_monotonic(software_post, cfg_lane_on_o2_lex):
    graphs = _post_graphs(software_post, cfg_lane_on_o2_lex)
    assert synthesize_priorities(seed_order(LEX_ORDER, graphs), []) == ACCEPTED_ORDER


def test_synthesis_with_lane_feedback_reaches_accepted_order(software_post, cfg_lane_on_o2_lex):
    graphs = _post_graphs(software_post, cfg_lane_on_o2_lex)
    nogoods = sorted(expected_lane_feedback(), key=str)
    assert synthesize_priorities(seed_order(LEX_ORDER, graphs), nogoods) == ACCEPTED_ORDER


def test_synthesis_with_busy_window_feedback_reaches_pi3(software_post, cfg_lane_on_o2_lex, platform):
    graph = build_task_graph(software_post, cfg_lane_on_o2_lex, NORMAL)
    report = check_timing(TimingContext(graph, cfg_lane_on_o2_lex, platform), cfg_lane_on_o2_lex, BUSY_WINDOW)
    nogoods = [c for c in report.constraints if isinstance(c, PriorityNogood)]
    graphs = _post_graphs(software_post, cfg_lane_on_o2_lex)
    assert synthesize_priorities(seed_order(LEX_ORDER, graphs), nogoods) == PI3


def test_accumulated_busy_window_feedback_unsatisfiable(software_post, cfg_lane_on_o2_lex, platform):
    nogoods = []
    for order in (LEX_ORDER, PI3):
        cfg = Configuration(POST_SELECTED, CONNS_LANE_ON_O2, POST_MAPPING, order)
        graph = build_task_graph(software_post, cfg, NORMAL)
        report = check_timing(TimingContext(graph, cfg, platform), cfg, BUSY_WINDOW)
        nogoods.extend(c for c in report.constraints if isinstance(c, PriorityNogood))
    graphs = _post_graphs(software_post, cfg_lane_on_o2_lex)
    assert synthesize_priorities(seed_order(LEX_ORDER, graphs), nogoods) is None


def test_synthesis_respects_precedence(software_post, cfg_lane_on_o2_lex):
    graphs = _post_graphs(software_post, cfg_lane_on_o2_lex)
    order = synthesize_priorities(seed_order(LEX_ORDER, graphs), [PriorityPrecedence(TCI, INIT)])
    assert order is not None
    assert order.index(TCI) < order.index(INIT)
    # everything else keeps the seed arrangement
    assert order == ACCEPTED_ORDER[:7] + (TCI, INIT)


def test_synthesis_conflicting_precedences_unsat(software_post, cfg_lane_on_o2_lex):
    graphs = _post_graphs(software_post, cfg_lane_on_o2_lex)
    prec = [PriorityPrecedence(TCI, INIT), PriorityPrecedence(INIT, TCI)]
    assert synthesize_priorities(seed_order(LEX_ORDER, graphs), prec) is None


def test_synthesis_over_many_threads_needs_no_recursion():
    threads = [(f"C{i:04d}", "main") for i in range(1500)]
    assert synthesize_priorities(seed_order(threads, []), []) == tuple(threads)
    top = threads[0]
    push_down = [PriorityNogood(frozenset(), frozenset({(top, t)})) for t in threads[1:]]
    assert synthesize_priorities(seed_order(threads, []), push_down) == tuple(threads[1:]) + (top,)


def test_synthesis_pins_the_first_order_four_nogoods_allow():
    a, b, c, d = [(name, "main") for name in "ABCD"]
    reverse = seed_order([a, b, c, d], [])
    assert reverse == [d, c, b, a]
    assert synthesize_priorities(reverse, []) == (a, b, c, d)  # placed D, C, B, A bottom-up
    a_over_b = PriorityNogood(frozenset(), frozenset({(a, b)}))
    b_over_c = PriorityNogood(frozenset(), frozenset({(b, c)}))
    d_over_c = PriorityNogood(frozenset(), frozenset({(d, c)}))
    a_over_d = PriorityNogood(frozenset(), frozenset({(a, d)}))
    nogoods = [a_over_b, b_over_c, d_over_c, a_over_d]
    assert synthesize_priorities(reverse, nogoods) == (c, b, d, a)
    assert reference_synthesize([a, b, c, d], [], nogoods) == (c, b, d, a)


def _orders_per_partial():
    """(software, platform, a configuration per priority order) of each
    partial: random_chain_system seeds remapped over two resources, and
    every mapping of every passing structure of random_software_system
    seeds (at most 5 threads), whose requirements fail under some orders."""
    platform = parse_platform("resource R1 type CPU\nresource R2 type CPU\n")
    for seed in range(100):
        system = random_chain_system(random.Random(seed))
        rng = random.Random(seed)
        mapping = {task: rng.choice(("R1", "R2")) for task in sorted(system.config.mapping)}
        selected = system.config.selected
        orders = itertools.permutations(system.config.priorities)
        yield system.software, platform, [Configuration(selected, frozenset(), mapping, o) for o in orders]
    for seed in range(60):
        system = random_software_system(random.Random(seed))
        for base, _ in _structures(system):
            for _, cfgs in itertools.groupby(_completions(system, base), key=lambda cfg: cfg.mapping):
                yield system.software, system.platform, list(cfgs)


def test_shared_context_reports_every_order_as_a_fresh_one():
    failing = 0
    for software, platform, cfgs in _orders_per_partial():
        for mode in MODES:
            graph = build_task_graph(software, cfgs[0], mode)
            shared = TimingContext(graph, cfgs[0], platform)
            for cfg in cfgs:
                for model in MODELS:
                    report = check_timing(shared, cfg, model)
                    fresh = check_timing(TimingContext(graph, cfg, platform), cfg, model)
                    assert report.utilization == fresh.utilization
                    assert report.lines() == fresh.lines()
                    assert [str(c) for c in report.constraints] == [str(c) for c in fresh.constraints]
                    failing += not report.ok
    assert failing > 300


def _assert_per_chain_sum(graph, cfg, platform) -> None:
    expected = {r.name: Fraction(0) for r in platform.resources}
    for chain in graph.chains:
        for resource, frac in chain_utilization(chain, cfg).items():
            expected[resource] += frac
    util = utilization(graph, cfg, platform)
    assert util == expected and list(util) == list(expected)
    assert all(type(frac) is Fraction for frac in util.values())


def test_utilization_is_the_per_chain_sum_on_chain_systems():
    platform = parse_platform("resource R1 type CPU\nresource R2 type CPU\n")
    for seed in range(300):
        system = random_chain_system(random.Random(seed))
        rng = random.Random(seed)
        mapping = {task: rng.choice(("R1", "R2")) for task in sorted(system.config.mapping)}
        cfg = Configuration(system.config.selected, system.config.connections, mapping, system.config.priorities)
        _assert_per_chain_sum(build_task_graph(system.software, cfg, NORMAL), cfg, platform)


def test_utilization_is_the_per_chain_sum_on_software_systems():
    checked = 0
    for seed in range(200):
        system = random_software_system(random.Random(seed))
        for base, graphs in _structures(system):
            types = _task_types(system.software, base.selected)
            tasks = sorted(types)
            options = [[r.name for r in system.platform.resources if r.rtype == types[t]] for t in tasks]
            for combo in itertools.product(*options):
                cfg = Configuration(base.selected, base.connections, dict(zip(tasks, combo)), ())
                for graph in graphs:
                    _assert_per_chain_sum(graph, cfg, system.platform)
                    checked += 1
    assert checked > 500
