"""One test per acceptance criterion; `pytest -v` prints one line each."""

import io
import random
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction

from nego import cli
from nego.constraints import ConnLit, ForbidConjunction, PriorityNogood
from nego.controlflow import check_control_flow
from nego.deps import connection_candidates, count_solutions
from nego.dsl import parse_contract, render_contract
from nego.model import (
    Accepted,
    Rejected,
    UpdateRequest,
    check_well_formed,
    pinned_components,
)
from nego.negotiation import negotiate
from nego.randsys import random_chain_system, random_software_system
from nego.sim import simulate, synchronous_scenario, worst_observed
from nego.taskgraph import INITIALIZATION, NORMAL, build_task_graph
from nego.timing import BUSY_WINDOW, SINGLE_BLOCKING, TimingContext, chain_latency_bound, check_timing

from conftest import CORPUS
from oracles import chain_utilization, feasible
from test_dsl import GOLDEN_L, GOLDEN_P, GOLDEN_T

ORG1 = ("O1", "object_recognition_get")


def test_c1_dsl_round_trip_with_golden_asts(corpus_dir):
    goldens = {"T": GOLDEN_T, "P": GOLDEN_P, "L": GOLDEN_L}
    paths = {
        "T": corpus_dir / "contracts" / "T.contract",
        "P": corpus_dir / "contracts" / "P.contract",
        "L": corpus_dir / "updates" / "L.contract",
    }
    for name, path in paths.items():
        parsed = parse_contract(path.read_text())
        assert parsed == goldens[name]
        assert parse_contract(render_contract(parsed)) == parsed


def test_c2_dependency_space_is_exactly_two_solutions(software_post):
    candidates = connection_candidates(software_post, pinned_components(software_post))
    assert candidates.must == {
        ("P", "trajectory_calculation", "T"),
        ("L", "object_masking", "O2"),
        ("L", "steering", "S"),
    }
    assert dict(candidates.may) == {
        ("L", "object_recognition"): ("O1", "O2"),
        ("T", "object_recognition"): ("O1", "O2"),
    }
    assert count_solutions(candidates, software_post.interfaces) == 2


def test_c3_overload_is_rejected_priority_independently(software_post, cfg_lane_on_o1, platform):
    graph = build_task_graph(software_post, cfg_lane_on_o1, NORMAL)
    per_chain = {c.root: chain_utilization(c, cfg_lane_on_o1) for c in graph.chains}
    assert per_chain[("L", "lane_assist")]["CPU1"] == Fraction(9, 10)
    assert per_chain[("P", "park_assist")]["CPU1"] == Fraction(3, 20)
    report = check_timing(TimingContext(graph, cfg_lane_on_o1, platform), cfg_lane_on_o1, BUSY_WINDOW)
    assert len(report.constraints) == 1
    forbid = report.constraints[0]
    assert isinstance(forbid, ForbidConjunction)
    assert all(l[0] in ("sel", "conn", "map") for l in forbid.literals)
    orders = [
        cfg_lane_on_o1.priorities,
        tuple(reversed(cfg_lane_on_o1.priorities)),
        tuple(sorted(cfg_lane_on_o1.priorities, key=lambda t: t[1])),
    ]
    for order in orders:
        assert forbid.blocks(replace(cfg_lane_on_o1, priorities=order))


def test_c4_single_blocking_negotiation_accepts(system_pre, update_requests, software_post):
    answer, _ = negotiate(system_pre, update_requests, model=SINGLE_BLOCKING)
    assert isinstance(answer, Accepted)
    assert answer.report[1] == "timing 75 lane_assist: bound=50 PASS model=single-blocking"
    assert answer.report[2] == "timing 150 park_assist: bound=120 PASS model=single-blocking"
    assert (
        answer.report[3]
        == "timing 100 object_recognition.get(): bound=100 PASS model=single-blocking"
    )
    lane = build_task_graph(software_post, answer.config, NORMAL).chain(("L", "lane_assist"))
    lane_threads = set(lane.threads)
    demoted_below = {
        next(iter(ng.pairs))[1]
        for ng in answer.constraints
        if isinstance(ng, PriorityNogood)
        and len(ng.pairs) == 1
        and next(iter(ng.pairs))[0] == ORG1
    }
    assert demoted_below == lane_threads


def test_c5_busy_window_negotiation_rejects_with_sim_witness(
    system_pre, update_requests, software_post, cfg_lane_on_o2_lex
):
    answer, trace = negotiate(system_pre, update_requests, model=BUSY_WINDOW)
    assert isinstance(answer, Rejected)
    assert answer.reason == "exhausted"
    assert "  timing 150 park_assist: bound=170 FAIL model=busy-window" in trace.lines
    graph = build_task_graph(software_post, cfg_lane_on_o2_lex, NORMAL)
    result = simulate(
        graph, cfg_lane_on_o2_lex, synchronous_scenario(graph, 400, pattern="zero"), trace=True
    )
    assert result.maxima()[(("P", "park_assist"), (0, 5))] == 170
    assert any(line.startswith("t=") and " dispatch " in line for line in result.trace)


def test_c6_control_flow_passes_and_mutant_is_forbidden(
    software_pre, software_post, current_config, cfg_accepted, system_pre, corpus_dir
):
    assert check_control_flow(software_pre, current_config) == []
    assert check_control_flow(software_post, cfg_accepted) == []
    mutant = parse_contract((corpus_dir / "updates" / "P_no_init.contract").read_text())
    answer, trace = negotiate(system_pre, [UpdateRequest.update(mutant)], model=BUSY_WINDOW)
    assert isinstance(answer, Rejected)
    forbid = ForbidConjunction(frozenset({ConnLit("P", "trajectory_calculation", "T")}))
    assert forbid in answer.constraints
    assert "  constraint: forbid{conn[P,trajectory_calculation]=T}" in trace.lines
    assert trace.lines[-1] == "exhausted: 1 candidates tried"


def test_c7_pre_update_baseline_passes_both_models(software_pre, current_config, platform):
    assert check_well_formed(current_config, software_pre, platform) == []
    normal = build_task_graph(software_pre, current_config, NORMAL)
    init = build_task_graph(software_pre, current_config, INITIALIZATION)
    for model in (BUSY_WINDOW, SINGLE_BLOCKING):
        report = check_timing(TimingContext(normal, current_config, platform), current_config, model)
        assert report.ok
        verdicts = {v.target: (v.computed, v.bound) for v in report.verdicts}
        assert verdicts == {
            "park_assist": (30, 150),
            "object_recognition.get()": (10, 100),
        }
        init_report = check_timing(TimingContext(init, current_config, platform), current_config, model)
        assert init_report.ok
        assert [(v.target, v.computed) for v in init_report.verdicts] == [("P.init", 10)]


def test_c8a_busy_window_sound_against_simulation():
    spans = 0
    for seed in range(200):
        system = random_chain_system(random.Random(seed))
        graph = build_task_graph(system.software, system.config, NORMAL)
        ranks = system.config.ranks()
        for (root, span), seen in worst_observed(graph, system.config).items():
            bound = chain_latency_bound(
                graph.chain(root), span, graph, system.config, ranks, BUSY_WINDOW
            )
            assert bound is None or seen <= bound, (seed, root, span, seen, bound)
            spans += 1
    assert spans >= 200


def test_c8b_negotiation_agrees_with_brute_force():
    for model in (BUSY_WINDOW, SINGLE_BLOCKING):
        outcomes = set()
        for seed in range(50):
            system = random_software_system(random.Random(seed))
            answer, _ = negotiate(system, [], model=model)
            assert answer.ok == feasible(system, model=model), (model, seed)
            outcomes.add(answer.ok)
        assert outcomes == {True, False}, model


def _run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def test_c8c_cli_runs_are_deterministic(tmp_path):
    base = [
        "--contracts", str(CORPUS / "contracts"),
        "--services", str(CORPUS / "services.repo"),
        "--platform", str(CORPUS / "platform.txt"),
    ]
    cfg = ["--config", str(CORPUS / "current.config")]
    invocations = [
        ["validate", *base, *cfg],
        ["deps", *base],
        ["deps", *base, "--dot"],
        ["graph", *base, *cfg, "--mode", NORMAL],
        ["graph", *base, *cfg, "--mode", INITIALIZATION],
        ["bound", *base, *cfg, "--model", BUSY_WINDOW],
        ["bound", *base, *cfg, "--model", SINGLE_BLOCKING],
        ["simulate", *base, *cfg, "--horizon", "400", "--trace"],
        ["simulate", *base, *cfg, "--seed", "3", "--horizon", "400"],
        ["simulate", *base, *cfg, "--sweep"],
    ]
    requests = sorted((CORPUS / "requests").glob("*.req"))
    assert len(requests) == 4
    for request in requests:
        for model in (BUSY_WINDOW, SINGLE_BLOCKING):
            invocations.append(
                ["negotiate", *base, *cfg, "--request", str(request), "--model", model]
            )
    for index, argv in enumerate(invocations):
        first = _run_cli(argv)
        second = _run_cli(argv)
        assert first == second, argv
    for index, (request, model) in enumerate(
        (r, m) for r in requests for m in (BUSY_WINDOW, SINGLE_BLOCKING)
    ):
        outs = []
        for run in ("a", "b"):
            out_dir = tmp_path / f"{index}{run}"
            argv = [
                "negotiate", *base, *cfg,
                "--request", str(request), "--model", model, "--out", str(out_dir),
            ]
            code, text = _run_cli(argv)
            files = {
                p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            }
            outs.append((code, text, files))
        assert outs[0] == outs[1], (request.name, model)


def test_c9_om_task_never_activated_before_update(
    software_pre, software_post, current_config, cfg_accepted
):
    pre = build_task_graph(software_pre, current_config, NORMAL)
    assert all(("O2", "om") not in chain.task_ids for chain in pre.chains)
    post = build_task_graph(software_post, cfg_accepted, NORMAL)
    assert sum(task == ("O2", "om") for chain in post.chains for task in chain.task_ids) == 1
