import random

from hypothesis import given, settings
from hypothesis import strategies as st

from nego.constraints import PriorityNogood, PriorityPrecedence, active_priority_constraints
from nego.model import Configuration
from nego.randsys import random_chain_system
from nego.sim import worst_observed
from nego.taskgraph import NORMAL, build_task_graph
from nego.timing import BUSY_WINDOW, SINGLE_BLOCKING, chain_latency_bound, synthesize_priorities

from oracles import reference_synthesize

seeds = st.integers(min_value=0, max_value=10**9)


def _bounds(system, model):
    graph = build_task_graph(system.software, system.config, NORMAL)
    ranks = system.config.ranks()
    out = {}
    for chain in graph.chains:
        spans = {(0, len(chain.nodes))}
        spans.update(req.span for req in chain.requirements)
        for span in sorted(spans):
            out[(chain.root, span)] = chain_latency_bound(
                chain, span, graph, system.config, ranks, model
            )
    return out


@given(seeds)
def test_busy_window_dominates_single_blocking(seed):
    system = random_chain_system(random.Random(seed))
    single = _bounds(system, SINGLE_BLOCKING)
    busy = _bounds(system, BUSY_WINDOW)
    for key, sb in single.items():
        bw = busy[key]
        if bw is not None:
            assert sb is not None and bw >= sb


@settings(max_examples=15)
@given(seeds)
def test_busy_window_dominates_observed_latency(seed):
    system = random_chain_system(random.Random(seed))
    graph = build_task_graph(system.software, system.config, NORMAL)
    busy = _bounds(system, BUSY_WINDOW)
    observed = worst_observed(graph, system.config)
    for key, seen in observed.items():
        bound = busy[key]
        assert bound is None or seen <= bound


@given(seeds, st.integers(min_value=0, max_value=10**9))
def test_synthesis_output_respects_inputs(seed, constraint_seed):
    system = random_chain_system(random.Random(seed))
    graph = build_task_graph(system.software, system.config, NORMAL)
    threads = sorted(system.config.ranks())
    rng = random.Random(constraint_seed)
    precedences = []
    nogoods = []
    if len(threads) >= 2:
        for _ in range(rng.randint(0, 2)):
            above, below = rng.sample(threads, 2)
            precedences.append(PriorityPrecedence(above, below))
        for _ in range(rng.randint(0, 2)):
            pairs = frozenset(
                tuple(rng.sample(threads, 2)) for _ in range(rng.randint(1, 2))
            )
            nogoods.append(PriorityNogood(frozenset(), pairs))
    order = synthesize_priorities(threads, [graph], active_priority_constraints(precedences + nogoods, system.config))
    if order is None:
        return
    assert sorted(order) == threads
    ranks = {t: i for i, t in enumerate(order)}
    for prec in precedences:
        assert ranks[prec.above] < ranks[prec.below]
    for ng in nogoods:
        assert not all(ranks[hi] < ranks[lo] for hi, lo in ng.pairs)


@given(seeds)
def test_unconstrained_synthesis_always_succeeds(seed):
    system = random_chain_system(random.Random(seed))
    graph = build_task_graph(system.software, system.config, NORMAL)
    threads = sorted(system.config.ranks())
    order = synthesize_priorities(threads, [graph], [])
    assert order is not None and sorted(order) == threads


# Threads come from the first six; G is never a thread, so pairs may name
# absent threads, and a pair may repeat its thread.
POOL = [(c, "main") for c in "ABCDEFG"]
pairs = st.tuples(st.sampled_from(POOL), st.sampled_from(POOL))


@settings(max_examples=200)
@given(
    st.lists(st.sampled_from(POOL[:6]), unique=True, max_size=6),
    st.lists(st.frozensets(pairs, max_size=3), max_size=5),
    st.lists(pairs, max_size=3),
)
def test_synthesis_finds_first_allowed_permutation(threads, nogood_pairs, precedence_pairs):
    constraints = [PriorityNogood(frozenset(), p) for p in nogood_pairs]
    constraints += [PriorityPrecedence(above, below) for above, below in precedence_pairs]
    folded = active_priority_constraints(constraints, Configuration(frozenset(), frozenset(), {}, ()))
    assert synthesize_priorities(threads, [], folded) == reference_synthesize(threads, [], constraints)
