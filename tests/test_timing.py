from fractions import Fraction

import pytest

from nego.constraints import (
    ConnLit,
    ForbidConjunction,
    MapLit,
    PriorityNogood,
    PriorityPrecedence,
    active_priority_constraints,
)
from nego.dsl import load_software_model
from nego.model import Configuration, parse_platform
from nego.taskgraph import INITIALIZATION, NORMAL, build_task_graph
from nego.timing import (
    BUSY_WINDOW,
    SINGLE_BLOCKING,
    chain_latency_bound,
    chain_utilization,
    check_timing,
    synthesize_priorities,
    utilization,
)

from conftest import ACCEPTED_ORDER, CONNS_LANE_ON_O2, LEX_ORDER, POST_MAPPING, POST_SELECTED

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
    report = check_timing(graph, cfg_lane_on_o1, platform, BUSY_WINDOW)
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
        report = check_timing(graph, current_config, platform, model)
        assert report.ok
        assert bounds_by_target(report) == {
            "park_assist": (30, True),
            "object_recognition.get()": (10, True),
        }


def test_pre_update_report_lines(software_pre, current_config, platform):
    graph = build_task_graph(software_pre, current_config, NORMAL)
    report = check_timing(graph, current_config, platform, BUSY_WINDOW)
    assert report.lines() == [
        "utilization CPU1: 3/20 OK",
        "timing 150 park_assist: bound=30 PASS model=busy-window",
        "timing 100 object_recognition.get(): bound=10 PASS model=busy-window",
    ]


def test_init_mode_report(software_pre, current_config, platform):
    graph = build_task_graph(software_pre, current_config, INITIALIZATION)
    report = check_timing(graph, current_config, platform, BUSY_WINDOW)
    assert report.ok
    assert report.lines() == [
        "utilization CPU1: 0 OK",
        "timing inf P.init: bound=10 PASS model=busy-window",
    ]


def test_lex_candidate_single_blocking(software_post, cfg_lane_on_o2_lex, platform):
    graph = build_task_graph(software_post, cfg_lane_on_o2_lex, NORMAL)
    report = check_timing(graph, cfg_lane_on_o2_lex, platform, SINGLE_BLOCKING)
    assert report.lines() == [
        "utilization CPU1: 17/20 OK",
        "timing 75 lane_assist: bound=110 FAIL model=single-blocking",
        "timing 150 park_assist: bound=120 PASS model=single-blocking",
        "timing 100 object_recognition.get(): bound=70 PASS model=single-blocking",
    ]


def test_lex_candidate_busy_window(software_post, cfg_lane_on_o2_lex, platform):
    graph = build_task_graph(software_post, cfg_lane_on_o2_lex, NORMAL)
    report = check_timing(graph, cfg_lane_on_o2_lex, platform, BUSY_WINDOW)
    assert bounds_by_target(report) == {
        "lane_assist": (110, False),
        "park_assist": (170, False),
        "object_recognition.get()": (70, True),
    }


def test_accepted_candidate_single_blocking(software_post, cfg_accepted, platform):
    graph = build_task_graph(software_post, cfg_accepted, NORMAL)
    report = check_timing(graph, cfg_accepted, platform, SINGLE_BLOCKING)
    assert report.ok
    assert bounds_by_target(report) == {
        "lane_assist": (50, True),
        "park_assist": (120, True),
        "object_recognition.get()": (100, True),
    }


def test_accepted_candidate_fails_busy_window(software_post, cfg_accepted, platform):
    # the busy-window model charges the second lane activation to park
    graph = build_task_graph(software_post, cfg_accepted, NORMAL)
    report = check_timing(graph, cfg_accepted, platform, BUSY_WINDOW)
    assert not report.ok
    assert bounds_by_target(report) == {
        "lane_assist": (50, True),
        "park_assist": (170, False),
        "object_recognition.get()": (150, False),
    }


def test_pi3_busy_window(software_post, platform):
    cfg = Configuration(POST_SELECTED, CONNS_LANE_ON_O2, POST_MAPPING, PI3)
    graph = build_task_graph(software_post, cfg, NORMAL)
    report = check_timing(graph, cfg, platform, BUSY_WINDOW)
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
    report = check_timing(graph, cfg_lane_on_o2_lex, platform, SINGLE_BLOCKING)
    assert set(report.constraints) == expected_lane_feedback()
    assert len(report.constraints) == 5


def test_busy_window_adds_park_feedback(software_post, cfg_lane_on_o2_lex, platform):
    graph = build_task_graph(software_post, cfg_lane_on_o2_lex, NORMAL)
    report = check_timing(graph, cfg_lane_on_o2_lex, platform, BUSY_WINDOW)
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
    report = check_timing(graph, cfg, platform, SINGLE_BLOCKING)
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


def test_unknown_model_rejected(software_pre, current_config):
    graph = build_task_graph(software_pre, current_config, NORMAL)
    chain = graph.chains[0]
    with pytest.raises(ValueError):
        chain_latency_bound(chain, (0, 1), graph, current_config, current_config.ranks(), "exact")


# ---------------------------------------------------------------------------
# priority synthesis


def _post_graphs(software_post, cfg):
    return [build_task_graph(software_post, cfg, NORMAL), build_task_graph(software_post, cfg, INITIALIZATION)]


def test_unconstrained_synthesis_is_deadline_monotonic(software_post, cfg_lane_on_o2_lex):
    graphs = _post_graphs(software_post, cfg_lane_on_o2_lex)
    assert synthesize_priorities(LEX_ORDER, graphs, []) == ACCEPTED_ORDER


def test_synthesis_with_lane_feedback_reaches_accepted_order(software_post, cfg_lane_on_o2_lex):
    graphs = _post_graphs(software_post, cfg_lane_on_o2_lex)
    nogoods = sorted(expected_lane_feedback(), key=str)
    assert synthesize_priorities(LEX_ORDER, graphs, nogoods) == ACCEPTED_ORDER


def test_synthesis_with_busy_window_feedback_reaches_pi3(software_post, cfg_lane_on_o2_lex, platform):
    graph = build_task_graph(software_post, cfg_lane_on_o2_lex, NORMAL)
    report = check_timing(graph, cfg_lane_on_o2_lex, platform, BUSY_WINDOW)
    nogoods = [c for c in report.constraints if isinstance(c, PriorityNogood)]
    graphs = _post_graphs(software_post, cfg_lane_on_o2_lex)
    assert synthesize_priorities(LEX_ORDER, graphs, nogoods) == PI3


def test_accumulated_busy_window_feedback_unsatisfiable(software_post, cfg_lane_on_o2_lex, platform):
    nogoods = []
    for order in (LEX_ORDER, PI3):
        cfg = Configuration(POST_SELECTED, CONNS_LANE_ON_O2, POST_MAPPING, order)
        graph = build_task_graph(software_post, cfg, NORMAL)
        report = check_timing(graph, cfg, platform, BUSY_WINDOW)
        nogoods.extend(c for c in report.constraints if isinstance(c, PriorityNogood))
    graphs = _post_graphs(software_post, cfg_lane_on_o2_lex)
    assert synthesize_priorities(LEX_ORDER, graphs, nogoods) is None


def test_synthesis_respects_precedence(software_post, cfg_lane_on_o2_lex):
    graphs = _post_graphs(software_post, cfg_lane_on_o2_lex)
    prec = active_priority_constraints([PriorityPrecedence(TCI, INIT)], cfg_lane_on_o2_lex)
    order = synthesize_priorities(LEX_ORDER, graphs, prec)
    assert order is not None
    assert order.index(TCI) < order.index(INIT)
    # everything else keeps the seed arrangement
    assert order == ACCEPTED_ORDER[:7] + (TCI, INIT)


def test_synthesis_conflicting_precedences_unsat(software_post, cfg_lane_on_o2_lex):
    graphs = _post_graphs(software_post, cfg_lane_on_o2_lex)
    prec = active_priority_constraints(
        [PriorityPrecedence(TCI, INIT), PriorityPrecedence(INIT, TCI)], cfg_lane_on_o2_lex
    )
    assert synthesize_priorities(LEX_ORDER, graphs, prec) is None


def test_synthesis_over_many_threads_needs_no_recursion():
    threads = [(f"C{i:04d}", "main") for i in range(1500)]
    assert synthesize_priorities(threads, [], []) == tuple(threads)
    top = threads[0]
    push_down = [PriorityNogood(frozenset(), frozenset({(top, t)})) for t in threads[1:]]
    assert synthesize_priorities(threads, [], push_down) == tuple(threads[1:]) + (top,)
