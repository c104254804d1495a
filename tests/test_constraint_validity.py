"""Every constraint negotiation learns is valid: each complete
configuration it excludes fails an analysis under the same model.  An
invalid constraint that happens to miss the feasible region leaves every
answer right, so brute-force agreement alone cannot see it."""

import random
from dataclasses import replace

import pytest

import nego.timing
from nego.constraints import MapLit, PriorityNogood
from nego.dsl import load_software_model
from nego.model import SystemModel, parse_platform
from nego.negotiation import negotiate
from nego.randsys import random_software_system
from nego.timing import BUSY_WINDOW, MODELS, SINGLE_BLOCKING

from oracles import invalid_constraints


def _random_systems(count: int):
    return (random_software_system(random.Random(seed)) for seed in range(count))


def _two_servers():
    """Apps P (period 10) and Q (period 1000) each call `s`, served by X
    (WCET 20) or Y (WCET 1), all on one CPU.  X serving both is
    structural, X serving P overloads, and P on Y with Q on X passes."""

    def app(name: str, period: int) -> str:
        return (f"component {name}\n  services\n    requires s\n  threads\n"
                f"    thread main on time (period={period} jitter=0)\n"
                "      task t onto CPU wcet=1 bcet=1\n      RPC s.m()\n")

    def server(name: str, wcet: int) -> str:
        return (f"component {name}\n  services\n    provides s\n  threads\n"
                f"    thread serve on RPC s.m()\n      task t onto CPU wcet={wcet} bcet=1\n")

    contracts = [app("P", 10), app("Q", 1000), server("X", 20), server("Y", 1)]
    software = load_software_model(contracts, "service s\n  method m ()\n")
    return [SystemModel(software, parse_platform("resource R type CPU\n"), None)]


def _first_invalid(systems, model):
    """The first (system, invalid pairs) whose learned constraints include
    an invalid one, or None."""
    for system in systems:
        answer, _ = negotiate(system, [], model=model)
        found = invalid_constraints(system, model, answer.constraints)
        if found:
            return system, found
    return None


@pytest.mark.parametrize("model", MODELS)
def test_learned_constraints_are_valid(model):
    assert _first_invalid(_random_systems(300), model) is None
    assert _first_invalid(_two_servers(), model) is None


def _without_interferer_maps(feedback):
    def mutant(context, span, interferers, ranks):
        def map_lit(task):
            return MapLit(*task, context.mapping[task])

        start, stop = span.span
        own = span.chain.task_ids[start:stop]
        interfering = {other.task_ids[i] for other, positions in interferers for i in positions}
        maps = set(map(map_lit, interfering)) - set(map(map_lit, own))
        return [
            replace(c, context=c.context - maps) if isinstance(c, PriorityNogood) else c
            for c in feedback(context, span, interferers, ranks)
        ]

    return mutant


def _without_connections(overload_forbid):
    def mutant(context, resource):
        forbid = overload_forbid(context, resource)
        return replace(forbid, literals=frozenset(l for l in forbid.literals if l[0] != "conn"))

    return mutant


@pytest.mark.parametrize(
    "attr, mutate, systems, model",
    [
        # the nogood then binds wherever the interferers sit elsewhere
        # (first at seed 104); every answer over these seeds stays right
        ("_latency_feedback", _without_interferer_maps, lambda: _random_systems(300), BUSY_WINDOW),
        # the forbid then binds whatever chains load the resource: learned
        # when X serves P, it refuses P on Y with Q on X too
        ("_overload_forbid", _without_connections, _two_servers, BUSY_WINDOW),
        ("_overload_forbid", _without_connections, _two_servers, SINGLE_BLOCKING),
    ],
    ids=["nogood without interferer maps", "overload forbid without connections",
         "overload forbid without connections, single-blocking"],
)
def test_oracle_flags_a_feedback_mutation(monkeypatch, attr, mutate, systems, model):
    monkeypatch.setattr(nego.timing, attr, mutate(getattr(nego.timing, attr)))
    assert _first_invalid(systems(), model) is not None
