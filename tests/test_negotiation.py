from dataclasses import replace

import pytest

import systems
from nego.dsl import load_software_model, parse_contract
from nego.model import Accepted, Configuration, Rejected, SystemModel, UpdateRequest, parse_platform
from nego.negotiation import Evaluation, negotiate
from nego.timing import BUSY_WINDOW, SINGLE_BLOCKING

from conftest import ACCEPTED_ORDER, CONNS_LANE_ON_O2, POST_MAPPING, POST_SELECTED

PI3_LINE = (
    "  priorities: L.lane_assist > O2.object_masking_get > O2.object_recognition_get"
    " > T.trajectory_calculation_get > S.steering_setAngle > O1.object_recognition_get"
    " > P.park_assist > P.init > T.trajectory_calculation_init"
)


def test_lane_assist_update_accepted_single_blocking(system_pre, update_requests, current_config):
    answer, trace = negotiate(system_pre, update_requests, model=SINGLE_BLOCKING)
    assert isinstance(answer, Accepted) and answer.ok
    assert answer.config.selected == POST_SELECTED
    assert answer.config.connections == CONNS_LANE_ON_O2
    assert dict(answer.config.mapping) == POST_MAPPING
    assert answer.config.priorities == ACCEPTED_ORDER
    assert answer.previous == current_config
    assert answer.report == (
        "utilization CPU1: 17/20 OK",
        "timing 75 lane_assist: bound=50 PASS model=single-blocking",
        "timing 150 park_assist: bound=120 PASS model=single-blocking",
        "timing 100 object_recognition.get(): bound=100 PASS model=single-blocking",
        "timing inf P.init: bound=10 PASS model=single-blocking",
    )
    assert len(answer.constraints) == 6
    assert trace.candidates == 3
    assert trace.revalidation == "pinned component L not selected"
    assert [result.layer for _, result in trace.steps] == ["timing", "timing", None]
    assert trace.end is None
    lines = trace.lines
    assert lines[0] == "request: add S"
    assert lines[1] == "request: add L"
    assert lines[2] == "revalidation: pinned component L not selected"
    assert "candidate 1" in lines and "candidate 2" in lines and "candidate 3" in lines
    assert lines[-1] == "accept: candidate 3"
    assert "  utilization CPU1: 21/20 OVERLOAD" in lines
    assert "  timing 75 lane_assist: bound=110 FAIL model=single-blocking" in lines
    assert "  timing 150 park_assist: bound=120 PASS model=single-blocking" in lines
    assert trace.text() == "\n".join(lines) + "\n"


def test_lane_assist_update_rejected_busy_window(system_pre, update_requests):
    answer, trace = negotiate(system_pre, update_requests, model=BUSY_WINDOW)
    assert isinstance(answer, Rejected) and not answer.ok
    assert answer.reason == "exhausted"
    assert trace.candidates == 3
    assert len(trace.steps) == 3 and trace.end == "exhausted"
    assert trace.lines[-1] == "exhausted: 3 candidates tried"
    park_fail = "  timing 150 park_assist: bound=170 FAIL model=busy-window"
    assert list(trace.lines).count(park_fail) == 2
    assert PI3_LINE in trace.lines
    assert answer.constraints


def test_empty_request_revalidates(system_pre, current_config):
    answer, trace = negotiate(system_pre, [], model=BUSY_WINDOW)
    assert isinstance(answer, Accepted)
    assert answer.config == current_config
    assert answer.previous == current_config
    assert trace.candidates == 0
    assert trace.steps == ()
    assert trace.lines == ("revalidation: ok",)
    assert answer.report == (
        "utilization CPU1: 3/20 OK",
        "timing 150 park_assist: bound=30 PASS model=busy-window",
        "timing 100 object_recognition.get(): bound=10 PASS model=busy-window",
        "timing inf P.init: bound=10 PASS model=busy-window",
    )


def test_remove_provider_renegotiates(system_pre):
    answer, trace = negotiate(system_pre, [UpdateRequest.remove("O2")], model=BUSY_WINDOW)
    assert isinstance(answer, Accepted)
    assert trace.lines[0] == "request: remove O2"
    assert trace.lines[1] == (
        "revalidation: stale configuration: selected component 'O2' does not exist"
    )
    assert trace.candidates == 1
    assert trace.lines[-1] == "accept: candidate 1"
    cfg = answer.config
    assert cfg.selected == frozenset({"O1", "P", "T"})
    assert cfg.connections == frozenset(
        {("P", "trajectory_calculation", "T"), ("T", "object_recognition", "O1")}
    )
    assert set(cfg.mapping) == {
        ("O1", "or1"), ("P", "p1"), ("P", "p2"), ("T", "tc1"), ("T", "tc2"), ("T", "tci"),
    }
    assert cfg.priorities == (
        ("O1", "object_recognition_get"),
        ("P", "init"),
        ("P", "park_assist"),
        ("T", "trajectory_calculation_get"),
        ("T", "trajectory_calculation_init"),
    )
    assert answer.report == (
        "utilization CPU1: 7/20 OK",
        "timing 150 park_assist: bound=70 PASS model=busy-window",
        "timing 100 object_recognition.get(): bound=50 PASS model=busy-window",
        "timing inf P.init: bound=10 PASS model=busy-window",
    )


def test_mutant_without_init_rejected(system_pre, corpus_dir):
    mutant = parse_contract((corpus_dir / "updates" / "P_no_init.contract").read_text())
    answer, trace = negotiate(system_pre, [UpdateRequest.update(mutant)], model=BUSY_WINDOW)
    assert isinstance(answer, Rejected)
    assert answer.reason == "exhausted"
    assert trace.candidates == 1
    lines = trace.lines
    assert lines[0] == "request: update P"
    assert lines[1] == "revalidation: stale configuration: component 'P' has no thread 'init'"
    assert (
        "  control_flow: T.trajectory_calculation.get reachable before init via P/park_assist"
        in lines
    )
    assert "  constraint: forbid{conn[P,trajectory_calculation]=T}" in lines
    assert "  reject: control_flow" in lines
    assert lines[-1] == "exhausted: 1 candidates tried"


def test_budget_cuts_search(system_pre, update_requests):
    answer, trace = negotiate(system_pre, update_requests, model=SINGLE_BLOCKING, budget=1)
    assert isinstance(answer, Rejected)
    assert answer.reason == "budget"
    assert trace.candidates == 1
    assert trace.end == "budget" and len(trace.steps) == 1
    assert trace.lines[-1] == "budget: 1 candidates tried"


def test_unknown_model_rejected(system_pre):
    with pytest.raises(ValueError):
        negotiate(system_pre, [], model="exact")


def test_fresh_system_needs_no_previous(software_pre, platform):
    system = SystemModel(software_pre, platform, None)
    answer, trace = negotiate(system, [], model=BUSY_WINDOW)
    assert isinstance(answer, Accepted)
    assert answer.previous is None
    assert trace.candidates == 1
    assert not any(line.startswith("revalidation") for line in trace.lines)


def test_candidate_description_lines(system_pre, update_requests):
    _, trace = negotiate(system_pre, update_requests, model=SINGLE_BLOCKING)
    lines = trace.lines
    first = lines.index("candidate 1")
    assert lines[first + 1] == "  selected: L O1 O2 P S T"
    assert "  connection: L object_recognition O1" in lines[first:first + 7]
    assert "  mapping: L.la1 CPU1" in lines
    priority_lines = [l for l in lines if l.startswith("  priorities: ")]
    assert priority_lines[0].startswith("  priorities: L.lane_assist > O1.object_recognition_get")


# ---------------------------------------------------------------------------
# Revalidation reasons: one test per check that can reject the current configuration


def _threads(software):
    return tuple(sorted((c, t.name) for c in software.contracts for t in software.contracts[c].threads))


def _mapped_to(software, resource):
    return {
        (c, task.name): resource
        for c in software.contracts
        for thread in software.contracts[c].threads
        for task in thread.tasks()
    }


def test_revalidation_not_well_formed(system_pre, current_config):
    cfg = replace(
        current_config,
        connections=current_config.connections - {("T", "object_recognition", "O2")},
    )
    _, trace = negotiate(system_pre._replace(config=cfg), [], model=BUSY_WINDOW)
    assert trace.lines[0] == (
        "revalidation: not well-formed: [2] T -> object_recognition: 0 providers connected, need exactly 1"
    )


def test_revalidation_control_flow_violation():
    software = load_software_model(
        [
            "component A services requires s threads thread t on time (period=9 jitter=0) "
            "task a1 onto R wcet=1 bcet=1 RPC s.go() task a2 onto R wcet=1 bcet=1 RPC s.prep()",
            "component B services provides s threads "
            "thread e_go on RPC s.go() task bg onto R wcet=1 bcet=1 "
            "thread e_prep on RPC s.prep() task bp onto R wcet=1 bcet=1 "
            "control_flow not s.go() until s.prep()",
        ],
        "service s method go () method prep ()",
    )
    cfg = Configuration(
        frozenset(software.contracts), frozenset({("A", "s", "B")}),
        _mapped_to(software, "R1"), _threads(software),
    )
    system = SystemModel(software, parse_platform("resource R1 type R\n"), cfg)
    answer, trace = negotiate(system, [], model=BUSY_WINDOW)
    assert trace.lines[0] == "revalidation: control_flow: B.s.go reachable before prep via A/t"
    assert isinstance(answer, Rejected) and answer.reason == "exhausted"


def test_revalidation_structure_error():
    system = systems.shared(3, 1)
    software = system.software
    cfg = Configuration(
        frozenset(software.contracts),
        frozenset((f"P{i:03d}", "svc", "A") for i in range(3)),
        _mapped_to(software, "R0"),
        _threads(software),
    )
    answer, trace = negotiate(system._replace(config=cfg), [], model=BUSY_WINDOW)
    assert trace.lines[0] == (
        "revalidation: structure: task A.e appears in chain P000.main and chain P001.main in normal mode"
    )
    assert isinstance(answer, Rejected) and answer.reason == "exhausted"


def test_revalidation_latency_failure(software_post, platform, cfg_accepted):
    # accepted under single-blocking, too slow under busy-window
    system = SystemModel(software_post, platform, cfg_accepted)
    assert negotiate(system, [], model=SINGLE_BLOCKING)[1].lines == ("revalidation: ok",)
    _, trace = negotiate(system, [], model=BUSY_WINDOW)
    assert isinstance(trace.revalidation, Evaluation) and trace.revalidation.layer == "timing"
    assert trace.lines[0] == "revalidation: timing 150 park_assist: bound=170 FAIL model=busy-window"


def test_revalidation_utilization_overload():
    system = systems.indep(2, 1, 1, 20, 10, 6)
    software = system.software
    cfg = Configuration(
        frozenset(software.contracts), frozenset(), _mapped_to(software, "R0"), _threads(software)
    )
    answer, trace = negotiate(system._replace(config=cfg), [], model=BUSY_WINDOW)
    assert trace.lines[0] == "revalidation: utilization overload"
    assert isinstance(answer, Rejected) and answer.reason == "exhausted"
