"""The search as `negotiate` drives it: pinned corpus outputs, the
invariants the store relies on, and candidate counts on scalable systems."""

import contextlib
import hashlib
import io
import random
from collections import Counter

import pytest

import nego.negotiation
import nego.space
import systems
from nego import cli
from nego.constraints import configuration_ok
from nego.controlflow import CfViolation
from nego.deps import connection_candidates, count_solutions
from nego.model import Accepted, pinned_components
from nego.negotiation import negotiate
from nego.randsys import random_software_system
from nego.space import ConstraintStore
from nego.taskgraph import build_task_graph
from nego.timing import MODELS

from conftest import CORPUS
from systems import NogoodProbe, StoreProbe

# SHA-256 of the full standard output of `nego negotiate --trace` and the
# exit code, per corpus request and model.
GOLDEN_NEGOTIATE = {
    ("add_lane_assist", "busy-window"): (1, "8efb9d7f39daf08976bbb00090885198a36939ce98287779daa8ac2c0080d343"),
    ("add_lane_assist", "single-blocking"): (0, "9bda8daf5f49ccfbd6f1c129b31723ed9f723ff161abc576b1ecef72982647fa"),
    ("mutant_no_init", "busy-window"): (1, "5401b277e19aae27e1318a8170c6785b536d48a57c8c53b38b87eb52a66d8a27"),
    ("mutant_no_init", "single-blocking"): (1, "5401b277e19aae27e1318a8170c6785b536d48a57c8c53b38b87eb52a66d8a27"),
    ("remove_o2", "busy-window"): (0, "404b703a39d38cc907477bb4ca2b41b7d81593e02f0de6e0d4b60df926416075"),
    ("remove_o2", "single-blocking"): (0, "d0b4f62b7b847ea3a1f224802acb26d685f85a4ecee0862fd9027d4363b9c753"),
    ("revalidate", "busy-window"): (0, "21e4f2ccc2efbe60f362ffd6bf3c5d9d2d55172472226921119cc2e07973f15c"),
    ("revalidate", "single-blocking"): (0, "b4857b751b7c157dcd2edea1252cef221cbd2f990fc07d2ece70fa1fa37822b2"),
}


def _negotiate_cli(request: str, model: str, trace: bool = True) -> tuple[int, str]:
    argv = [
        "negotiate",
        "--contracts", str(CORPUS / "contracts"),
        "--services", str(CORPUS / "services.repo"),
        "--platform", str(CORPUS / "platform.txt"),
        "--config", str(CORPUS / "current.config"),
        "--request", str(CORPUS / "requests" / f"{request}.req"),
        "--model", model,
    ] + ["--trace"] * trace
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _corpus_and_random_runs(seeds: range):
    """Run every corpus request through the CLI and negotiate every random
    system, under both models."""
    for request, model in GOLDEN_NEGOTIATE:
        _negotiate_cli(request, model)
    for seed in seeds:
        for model in MODELS:
            negotiate(random_software_system(random.Random(seed)), [], model=model)


@pytest.mark.parametrize("request_name,model", sorted(GOLDEN_NEGOTIATE))
def test_corpus_negotiate_output_is_pinned(request_name, model):
    code, text = _negotiate_cli(request_name, model)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (code, digest) == GOLDEN_NEGOTIATE[(request_name, model)]


def test_trace_is_rendered_only_on_demand(monkeypatch):
    plain = {key: _negotiate_cli(*key, trace=False) for key in GOLDEN_NEGOTIATE}

    def refuse(*args):
        raise AssertionError("trace rendered without --trace or --out")

    monkeypatch.setattr(nego.negotiation, "_describe", refuse)
    monkeypatch.setattr(CfViolation, "message", refuse)
    for key in GOLDEN_NEGOTIATE:
        assert _negotiate_cli(*key, trace=False) == plain[key], key


def test_trace_lines_are_rendered_once():
    answer, trace = negotiate(systems.shared(3, 1), [])
    lines = trace.lines
    assert trace.lines is lines
    assert trace.text() == "\n".join(lines) + "\n"
    assert lines[-1] == f"exhausted: {trace.candidates} candidates tried"


# `systems.negotiation_digest` over random_software_system seeds 0..999 and
# the `systems.ladder` rungs, under both models.
NEGOTIATION_DIGEST = "3d17a1e262f26af688ec61547ef6725e55184dc019f7ba088f515eccd3bea026"


def test_negotiation_output_is_pinned():
    digest = systems.negotiation_digest([*systems.random_systems(1000), *systems.ladder()])
    assert digest == NEGOTIATION_DIGEST


# `systems.negotiation_digest` over indep families that open many
# structural partials and propose several priority orders at each.
MULTI_PARTIAL_DIGEST = "b7de9a0a112a37fec26da81bdd35d08c202d2a54e358c2d2cdd5dbed3bb0906f"


def _multi_partial_families():
    return [
        systems.indep(6, 3, 2, 14, 24, 2),
        systems.indep(7, 2, 2, 14, 24, 2),
        systems.indep(7, 3, 2, 14, 24, 2),
    ]


def test_multi_partial_search_output_is_pinned():
    assert systems.negotiation_digest(_multi_partial_families()) == MULTI_PARTIAL_DIGEST


def test_nogoods_handed_to_synthesis_are_those_that_apply(monkeypatch):
    """Nothing on the verdict path checks a context literal by literal:
    the store's counts hand synthesis the nogoods that apply."""
    probe = NogoodProbe(monkeypatch)
    for system in [*systems.random_systems(300), *_multi_partial_families()]:
        for model in MODELS:
            negotiate(system, [], model=model)
    assert probe.checks["applied"] > 1000 and probe.checks["none"] > 100, probe.checks


def test_every_rejection_excludes_its_candidate(monkeypatch):
    probe = StoreProbe(monkeypatch)
    _corpus_and_random_runs(range(100))
    rejections = probe.rejections()
    assert len(rejections) > 20  # the runs do reach the search
    for candidate, constraints in rejections:
        assert not configuration_ok(candidate, constraints), candidate


def test_no_candidate_is_proposed_twice(monkeypatch):
    probe = StoreProbe(monkeypatch)
    _corpus_and_random_runs(range(300))
    stores = probe.stores()
    assert len(stores) > 100
    for store in stores:
        seen = [
            (c.selected, c.connections, tuple(sorted(c.mapping.items())), c.priorities)
            for c in probe.candidates(store)
        ]
        assert len(seen) == len(set(seen))


def test_task_graphs_built_once_per_structure_and_mode(monkeypatch):
    builds: Counter = Counter()

    def counting(software, cfg, mode):
        builds[(cfg.selected, cfg.connections, mode)] += 1
        return build_task_graph(software, cfg, mode)

    monkeypatch.setattr(nego.space, "build_task_graph", counting)
    monkeypatch.setattr(nego.negotiation, "build_task_graph", counting)
    runs = [(request, model, None) for request, model in GOLDEN_NEGOTIATE]
    runs += [(None, model, seed) for seed in range(100) for model in MODELS]
    total = 0
    for request, model, seed in runs:
        builds.clear()
        if request is not None:
            _negotiate_cli(request, model)
        else:
            negotiate(random_software_system(random.Random(seed)), [], model=model)
        assert all(n == 1 for n in builds.values()), (request, model, seed)
        total += sum(builds.values())
    assert total > 100


def test_timing_contexts_built_once_per_partial_and_mode(monkeypatch):
    builds: Counter = Counter()
    original = nego.space.TimingContext

    def counting(graph, cfg, platform):
        builds[(cfg.selected, cfg.connections, tuple(sorted(cfg.mapping.items())), graph.mode)] += 1
        return original(graph, cfg, platform)

    monkeypatch.setattr(nego.space, "TimingContext", counting)
    for model in MODELS:
        builds.clear()
        answer, trace = negotiate(systems.indep(5, 2, 2, 14, 24, 2), [], model=model)
        assert answer.ok and trace.candidates == 23
        assert all(n == 1 for n in builds.values()), model
        partials = {
            (c.selected, c.connections, tuple(sorted(c.mapping.items())))
            for c, _ in trace.steps
        }
        assert {key[:3] for key in builds} == partials
        assert len(builds) == 2 * len(partials) < 2 * trace.candidates


@pytest.mark.parametrize(
    "system,verdict,candidates",
    [
        (lambda: systems.shared(3, 2), "exhausted", 8),
        (lambda: systems.indep(6, 1, 1, 8, 20, 2), "exhausted", 5),
        (lambda: systems.indep(5, 2, 2, 14, 24, 2), "ok", 23),
        (lambda: systems.revdl(50), "ok", 2),
    ],
    ids=["shared(3,2)", "indep(6,1,1,8,20,2)", "indep(5,2,2,14,24,2)", "revdl(50)"],
)
def test_candidates_until_verdict(system, verdict, candidates):
    for model in MODELS:
        answer, trace = negotiate(system(), [], model=model)
        assert ("ok" if answer.ok else answer.reason) == verdict
        assert trace.candidates == candidates


def test_deep_chain_needs_no_recursion():
    system = systems.deep(1500)
    software = system.software
    pinned = pinned_components(software)
    assert pinned == {"C0000"}
    candidate = ConstraintStore(software, system.platform, pinned).next_candidate()
    assert len(candidate.selected) == 1500
    assert len(candidate.connections) == 1499
    assert count_solutions(connection_candidates(software, pinned), software.interfaces) == 1


def test_deep_chain_negotiates():
    answer, trace = negotiate(systems.deep(2000), [])
    assert isinstance(answer, Accepted)
    assert trace.candidates == 1
