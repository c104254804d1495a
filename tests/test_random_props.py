import random

from hypothesis import given, settings
from hypothesis import strategies as st

from nego.constraints import PriorityNogood, PriorityPrecedence
from nego.randsys import random_chain_system, random_software_system
from nego.sim import worst_observed
from nego.taskgraph import NORMAL, build_task_graph
from nego.timing import (
    BUSY_WINDOW,
    SINGLE_BLOCKING,
    PrioritySearch,
    chain_latency_bound,
    synthesize_priorities,
)

from oracles import _structures, reference_synthesize

seeds = st.integers(min_value=0, max_value=10**9)


def _bounds(system, model):
    graph = build_task_graph(system.software, system.config, NORMAL)
    ranks = system.config.ranks()
    out = {}
    for chain in graph.chains:
        spans = {(0, len(chain.task_ids))}
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
            precedences.append(tuple(rng.sample(threads, 2)))
        for _ in range(rng.randint(0, 2)):
            pairs = frozenset(
                tuple(rng.sample(threads, 2)) for _ in range(rng.randint(1, 2))
            )
            nogoods.append(PriorityNogood(frozenset(), pairs))
    constraints = [PriorityPrecedence(above, below) for above, below in precedences] + nogoods
    order = synthesize_priorities(PrioritySearch(threads, [graph]), constraints)
    if order is None:
        return
    assert sorted(order) == threads
    ranks = {t: i for i, t in enumerate(order)}
    for above, below in precedences:
        assert ranks[above] < ranks[below]
    for ng in nogoods:
        assert not all(ranks[hi] < ranks[lo] for hi, lo in ng.pairs)


@given(seeds)
def test_unconstrained_synthesis_always_succeeds(seed):
    system = random_chain_system(random.Random(seed))
    graph = build_task_graph(system.software, system.config, NORMAL)
    threads = sorted(system.config.ranks())
    order = synthesize_priorities(PrioritySearch(threads, [graph]), [])
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
    order = synthesize_priorities(PrioritySearch(threads, []), constraints)
    assert order == reference_synthesize(threads, [], constraints)


def _nogood_batch(rng, threads, order):
    """Up to three nogoods: most hold on `order` when one is given, as
    feedback on a rejected order does; the others are drawn at random
    from POOL and may name absent threads."""
    batch = []
    for _ in range(rng.randint(0, 3)):
        if order and len(order) >= 2 and rng.random() < 0.7:
            pairs = {tuple(sorted(rng.sample(order, 2), key=order.index)) for _ in range(rng.randint(1, 3))}
        else:
            pairs = {(rng.choice(POOL), rng.choice(POOL)) for _ in range(rng.randint(1, 3))}
        batch.append(PriorityNogood(frozenset(), frozenset(pairs)))
    return batch


@settings(max_examples=300)
@given(seeds)
def test_resumed_synthesis_equals_a_fresh_one_at_every_step(seed):
    rng = random.Random(seed)
    threads, graphs = rng.sample(POOL[:6], rng.randint(0, 6)), []
    if rng.random() < 0.5:
        # threads keyed by the requirements of a random software system
        system = random_software_system(rng)
        structure = next(_structures(system), None)
        if structure is not None:
            base, graphs = structure
            threads = sorted((c, t.name) for c in base.selected for t in system.software.contracts[c].threads)
    search = PrioritySearch(threads, graphs)
    given_so_far: list[PriorityNogood] = []
    order = None
    for _ in range(rng.randint(1, 8)):
        batch = _nogood_batch(rng, threads, order)
        given_so_far += batch
        order = synthesize_priorities(search, batch)
        assert order == synthesize_priorities(PrioritySearch(threads, graphs), given_so_far)
        assert order == reference_synthesize(threads, graphs, given_so_far)
