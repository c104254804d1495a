"""The four workloads: their inputs, the op that gives one verdict, and the
reference each verdict is checked against.

Every op calls `nego` through a module attribute looked up at call time
(`negotiation.negotiate`, `sim.worst_observed`, ...), so the wrappers the
traced run installs see the calls, and untraced runs see the originals.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import nego.cli as cli
import nego.dsl as dsl
import nego.model as model
import nego.negotiation as negotiation
import nego.randsys as randsys
import nego.sim as sim
import nego.taskgraph as taskgraph
import nego.timing as timing

import families


@dataclass(frozen=True)
class Outcome:
    verdict: str
    candidates: int | None = None  # known for negotiations called directly


@dataclass(frozen=True)
class Input:
    name: str
    run: Callable[[], Outcome]
    expected: str
    reference: str  # where `expected` comes from


@dataclass(frozen=True)
class Workload:
    name: str
    op_limit_s: float  # an op slower than this counts as failed
    build: Callable[[int, bool, Path], list[Input]]  # (seed, smoke, repo root)


# ---------------------------------------------------------------------------
# corpus: the bundled scenario through the command line front end

# Hand-written from the README and the acceptance tests: lane assist is
# admitted after three candidates under single-blocking and rejected under
# busy-window; the mutant without an initialization thread violates the
# control-flow rule under both models; removal and no-op revalidate.
CORPUS_EXPECTED = {
    ("add_lane_assist", timing.SINGLE_BLOCKING): "Yes",
    ("add_lane_assist", timing.BUSY_WINDOW): "No: exhausted",
    ("mutant_no_init", timing.SINGLE_BLOCKING): "No: exhausted",
    ("mutant_no_init", timing.BUSY_WINDOW): "No: exhausted",
    ("remove_o2", timing.SINGLE_BLOCKING): "Yes",
    ("remove_o2", timing.BUSY_WINDOW): "Yes",
    ("revalidate", timing.SINGLE_BLOCKING): "Yes",
    ("revalidate", timing.BUSY_WINDOW): "Yes",
}
# Candidates tried, from the same sources; checked in the traced run, where
# negotiate's result is visible.  Inputs not listed go unchecked.
CORPUS_CANDIDATES = {
    "add_lane_assist/single-blocking": 3,
    "mutant_no_init/busy-window": 1,
    "revalidate/single-blocking": 0,
    "revalidate/busy-window": 0,
}


def _cli_op(argv: list[str], expected: str) -> Callable[[], Outcome]:
    expected_code = 0 if expected == "Yes" else 1

    def run() -> Outcome:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        first = out.getvalue().split("\n", 1)[0]
        return Outcome(first if code == expected_code else f"exit {code}: {first}")

    return run


def build_corpus(seed: int, smoke: bool, root: Path) -> list[Input]:
    base = root / "corpus"
    common = ["--contracts", str(base / "contracts"), "--services", str(base / "services.repo"),
              "--platform", str(base / "platform.txt"), "--config", str(base / "current.config")]
    inputs = []
    for (request, model_name), expected in CORPUS_EXPECTED.items():
        argv = ["negotiate", *common, "--request", str(base / "requests" / f"{request}.req"),
                "--model", model_name]
        inputs.append(Input(f"{request}/{model_name}", _cli_op(argv, expected), expected,
                            "README and acceptance tests"))
    return inputs


# ---------------------------------------------------------------------------
# search and scale: generated families negotiated from scratch


def _negotiation_input(family: families.Family) -> Input:
    software = dsl.load_software_model(family.contracts, family.repository)
    system = model.SystemModel(software, model.parse_platform(family.platform), None)

    def run() -> Outcome:
        answer, trace = negotiation.negotiate(system, [], model=timing.BUSY_WINDOW)
        verdict = "Yes" if answer.ok else f"No: {answer.reason}"
        return Outcome(verdict, trace.candidates)

    return Input(family.name, run, family.expected, family.why)


def build_search(seed: int, smoke: bool, root: Path) -> list[Input]:
    return [_negotiation_input(f) for f in families.search_ladder(random.Random(seed), smoke)]


def build_scale(seed: int, smoke: bool, root: Path) -> list[Input]:
    return [_negotiation_input(f) for f in families.scale_ladder(random.Random(seed), smoke)]


# ---------------------------------------------------------------------------
# soundness: analytic bounds against the simulator

SOUNDNESS_SYSTEMS = 200  # the random_chain_system seeds 0..199 of the soundness sweep
SOUNDNESS_SMOKE_SYSTEMS = 20


def _soundness_input(index: int, seed: int) -> Input:
    """System `index` of the sweep with its task mapping and priority order
    drawn again from the workload seed: the periods, and so the simulation
    grid, stay those of the sweep, and any configuration must stay sound."""
    base = randsys.random_chain_system(random.Random(index))
    rng = random.Random(seed * 1_000_003 + index)
    resources = [r.name for r in base.platform.resources]
    mapping = {task: rng.choice(resources) for task in sorted(base.config.mapping)}
    order = list(base.config.priorities)
    rng.shuffle(order)
    cfg = model.Configuration(base.config.selected, base.config.connections, mapping, tuple(order))
    software = base.software

    def run() -> Outcome:
        graph = taskgraph.build_task_graph(software, cfg, taskgraph.NORMAL)
        ranks = cfg.ranks()
        for (root, span), seen in sorted(sim.worst_observed(graph, cfg).items()):
            chain = graph.chain(root)
            busy = timing.chain_latency_bound(chain, span, graph, cfg, ranks, timing.BUSY_WINDOW)
            single = timing.chain_latency_bound(chain, span, graph, cfg, ranks, timing.SINGLE_BLOCKING)
            where = f"{model.qual_str(root)}[{span[0]}:{span[1]}]"
            if busy is not None and seen > busy:
                return Outcome(f"unsound {where}: observed {seen} > busy-window {busy}")
            if busy is not None and single is not None and busy < single:
                return Outcome(f"order {where}: busy-window {busy} < single-blocking {single}")
        return Outcome("sound")

    return Input(f"chain#{index}", run, "sound", "the simulator's worst observed latencies")


def build_soundness(seed: int, smoke: bool, root: Path) -> list[Input]:
    count = SOUNDNESS_SMOKE_SYSTEMS if smoke else SOUNDNESS_SYSTEMS
    return [_soundness_input(i, seed) for i in range(count)]


WORKLOADS = {
    w.name: w
    for w in (
        # The real traffic: no single layer dominates it.
        Workload("corpus", 1.0, build_corpus),
        # The constraint store does almost all of the work; exhausting and
        # admitting rungs use it in two ways.
        Workload("search", 30.0, build_search),
        # Admitted on the first candidate: cost grows with size, not breadth.
        Workload("scale", 10.0, build_scale),
        # The only path through sim.
        Workload("soundness", 5.0, build_soundness),
    )
}
