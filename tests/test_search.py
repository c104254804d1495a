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
from nego.deps import connection_candidates, count_solutions
from nego.model import pinned_components
from nego.negotiation import negotiate
from nego.randsys import random_software_system
from nego.space import ConstraintStore
from nego.taskgraph import build_task_graph
from nego.timing import MODELS

from conftest import CORPUS
from systems import StoreProbe

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


def _negotiate_cli(request: str, model: str) -> tuple[int, str]:
    argv = [
        "negotiate",
        "--contracts", str(CORPUS / "contracts"),
        "--services", str(CORPUS / "services.repo"),
        "--platform", str(CORPUS / "platform.txt"),
        "--config", str(CORPUS / "current.config"),
        "--request", str(CORPUS / "requests" / f"{request}.req"),
        "--model", model,
        "--trace",
    ]
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


@pytest.mark.parametrize(
    "system,verdict,candidates",
    [
        (lambda: systems.shared(3, 2), "exhausted", 8),
        (lambda: systems.indep(6, 1, 1, 8, 20, 2), "exhausted", 5),
        (lambda: systems.indep(5, 2, 2, 14, 24, 2), "ok", 23),
    ],
    ids=["shared(3,2)", "indep(6,1,1,8,20,2)", "indep(5,2,2,14,24,2)"],
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
