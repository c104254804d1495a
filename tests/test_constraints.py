from hypothesis import given
from hypothesis import strategies as st

from nego.constraints import (
    ConnLit,
    ForbidConjunction,
    MapLit,
    PriorityNogood,
    PriorityPrecedence,
    SelLit,
    configuration_ok,
    holds,
    literal_text,
    sort_constraints,
)
from nego.model import Configuration

CFG = Configuration(
    frozenset({"A", "B"}),
    frozenset({("A", "s", "B")}),
    {("A", "t1"): "R1", ("B", "t2"): "R2"},
    (("A", "th"), ("B", "th")),
)


def test_literal_holds():
    assert holds(SelLit("A", True), CFG)
    assert holds(SelLit("C", False), CFG)
    assert not holds(SelLit("A", False), CFG)
    assert holds(ConnLit("A", "s", "B"), CFG)
    assert not holds(ConnLit("B", "s", "A"), CFG)
    assert holds(MapLit("A", "t1", "R1"), CFG)
    assert not holds(MapLit("A", "t1", "R2"), CFG)


def test_literal_strings():
    assert literal_text(SelLit("A", False)) == "sel[A]=false"
    assert literal_text(ConnLit("A", "s", "B")) == "conn[A,s]=B"
    assert literal_text(MapLit("A", "t1", "R1")) == "map[A.t1]=R1"


def test_literal_kinds_stay_distinct():
    conn, mapped = ConnLit("A", "s", "B"), MapLit("A", "s", "B")
    assert conn != mapped
    assert len(frozenset({conn, mapped})) == 2
    as_conn, as_map = ForbidConjunction(frozenset({conn})), ForbidConjunction(frozenset({mapped}))
    assert as_conn != as_map
    assert len({as_conn, as_map}) == 2
    assert str(as_conn) == "forbid{conn[A,s]=B}" and str(as_map) == "forbid{map[A.s]=B}"
    pairs = frozenset({(("A", "th"), ("B", "th"))})
    assert PriorityNogood(frozenset({conn}), pairs) != PriorityNogood(frozenset({mapped}), pairs)


def test_forbid_blocks_only_full_match():
    both = ForbidConjunction(frozenset({ConnLit("A", "s", "B"), MapLit("A", "t1", "R1")}))
    assert both.blocks(CFG)
    partial = ForbidConjunction(frozenset({ConnLit("A", "s", "B"), MapLit("A", "t1", "R2")}))
    assert not partial.blocks(CFG)


def test_empty_forbid_blocks_everything():
    assert ForbidConjunction(frozenset()).blocks(CFG)


def test_precedence():
    ok = PriorityPrecedence(("A", "th"), ("B", "th"))
    assert not ok.violated_by(CFG)
    bad = PriorityPrecedence(("B", "th"), ("A", "th"))
    assert bad.violated_by(CFG)
    absent = PriorityPrecedence(("C", "th"), ("A", "th"))
    assert not absent.violated_by(CFG)
    itself = PriorityPrecedence(("A", "th"), ("A", "th"))
    assert not itself.violated_by(CFG)


def test_nogood_requires_context_and_all_pairs():
    nogood = PriorityNogood(
        frozenset({ConnLit("A", "s", "B")}),
        frozenset({(("A", "th"), ("B", "th"))}),
    )
    assert nogood.applies(CFG)
    assert nogood.violated_by(CFG)
    reordered = Configuration(CFG.selected, CFG.connections, CFG.mapping, (("B", "th"), ("A", "th")))
    assert not nogood.violated_by(reordered)
    elsewhere = PriorityNogood(
        frozenset({ConnLit("B", "s", "A")}),
        frozenset({(("A", "th"), ("B", "th"))}),
    )
    assert not elsewhere.violated_by(CFG)


def test_nogood_empty_pairs_never_fires():
    nogood = PriorityNogood(frozenset(), frozenset())
    assert nogood.applies(CFG)
    assert not nogood.violated_by(CFG)


def test_configuration_ok():
    constraints = [
        PriorityPrecedence(("A", "th"), ("B", "th")),
        ForbidConjunction(frozenset({SelLit("C", True)})),
    ]
    assert configuration_ok(CFG, constraints)
    constraints.append(ForbidConjunction(frozenset({SelLit("A", True)})))
    assert not configuration_ok(CFG, constraints)


def test_precedence_is_the_context_free_nogood_on_its_reverse():
    precedence = PriorityPrecedence(("A", "th"), ("B", "th"))
    assert precedence == PriorityNogood(frozenset(), frozenset({(("B", "th"), ("A", "th"))}))
    assert precedence.applies(CFG)
    assert precedence.applies(Configuration(frozenset(), frozenset(), {}, ()))
    applicable = PriorityNogood(frozenset({SelLit("A", True)}), frozenset({(("A", "th"), ("B", "th"))}))
    foreign = PriorityNogood(frozenset({SelLit("Z", True)}), frozenset({(("A", "th"), ("B", "th"))}))
    assert applicable.applies(CFG) and not foreign.applies(CFG)


def test_sort_constraints_stable_by_text():
    a = ForbidConjunction(frozenset({SelLit("A", True)}))
    b = PriorityNogood(frozenset({SelLit("A", True)}), frozenset({(("B", "th"), ("A", "th"))}))
    assert sort_constraints([b, a]) == sort_constraints([a, b]) == [a, b]


threads = [("A", "th"), ("B", "th"), ("C", "th"), ("D", "th")]


@given(st.permutations(threads), st.sets(st.sampled_from(range(4)), min_size=1, max_size=3))
def test_nogood_violation_matches_pair_semantics(order, picks):
    pairs = frozenset((threads[i], threads[(i + 1) % 4]) for i in picks)
    cfg = Configuration(frozenset("ABCD"), frozenset(), {}, tuple(order))
    ranks = cfg.ranks()
    expected = all(ranks[t] < ranks[m] for t, m in pairs)
    nogood = PriorityNogood(frozenset(), pairs)
    assert nogood.violated_by(cfg) == expected
