import itertools
import random

import nego.controlflow
from nego.constraints import ConnLit, SelLit
from nego.controlflow import check_control_flow, thread_modes
from nego.dsl import load_software_model, parse_contract
from nego.model import Configuration, UpdateRequest, apply_update, pinned_components
from nego.randsys import random_software_system
from nego.taskgraph import INITIALIZATION, NORMAL

from oracles import assignments, reference_check_control_flow


def test_pre_update_clean(software_pre, current_config):
    assert check_control_flow(software_pre, current_config) == []


def test_post_update_clean_both_assignments(software_post, cfg_accepted, cfg_lane_on_o1):
    assert check_control_flow(software_post, cfg_accepted) == []
    assert check_control_flow(software_post, cfg_lane_on_o1) == []


def test_thread_modes_pre_update(software_pre, current_config):
    modes = thread_modes(software_pre, current_config)
    assert modes[("P", "park_assist")] == frozenset({NORMAL})
    assert modes[("P", "init")] == frozenset({INITIALIZATION})
    # T's entry threads inherit the modes of their callers
    assert modes[("T", "trajectory_calculation_get")] == frozenset({NORMAL})
    assert modes[("T", "trajectory_calculation_init")] == frozenset({INITIALIZATION})
    assert modes[("O2", "object_recognition_get")] == frozenset({NORMAL})
    # om has no caller in the pre-update configuration: no mode at all
    assert modes[("O2", "object_masking_get")] == frozenset()


def test_mutant_without_init_violates(software_pre, corpus_dir, current_config):
    mutant = parse_contract((corpus_dir / "updates" / "P_no_init.contract").read_text())
    software = apply_update(software_pre, UpdateRequest.update(mutant))
    violations = check_control_flow(software, current_config)
    assert len(violations) == 1
    v = violations[0]
    assert v.message() == (
        "control_flow: T.trajectory_calculation.get reachable before init via P/park_assist"
    )
    assert v.mode == NORMAL
    assert set(v.feedback.literals) == {ConnLit("P", "trajectory_calculation", "T")}


def _two_component_model(caller_threads: str, extra: str = ""):
    texts = [
        f"component A services requires s threads {caller_threads}",
        "component B services provides s threads "
        "thread e_go on RPC s.go() task bg onto R wcet=1 bcet=1 "
        "thread e_prep on RPC s.prep() task bp onto R wcet=1 bcet=1 "
        "control_flow not s.go() until s.prep()" + extra,
    ]
    repo = "service s method go () method prep ()"
    return load_software_model(texts, repo)


def _cfg(software, tasks):
    priorities = tuple(
        sorted((c, t.name) for c in software.contracts for t in software.contracts[c].threads)
    )
    return Configuration(
        frozenset(software.contracts), frozenset({("A", "s", "B")}),
        {task: "R1" for task in tasks}, priorities,
    )


def test_same_thread_earlier_prerequisite_admits():
    software = _two_component_model(
        "thread t on time (period=9 jitter=0) task a1 onto R wcet=1 bcet=1 "
        "RPC s.prep() task a2 onto R wcet=1 bcet=1 RPC s.go()"
    )
    cfg = _cfg(software, [("A", "a1"), ("A", "a2"), ("B", "bg"), ("B", "bp")])
    assert check_control_flow(software, cfg) == []


def test_call_before_prerequisite_violates():
    software = _two_component_model(
        "thread t on time (period=9 jitter=0) task a1 onto R wcet=1 bcet=1 "
        "RPC s.go() task a2 onto R wcet=1 bcet=1 RPC s.prep()"
    )
    cfg = _cfg(software, [("A", "a1"), ("A", "a2"), ("B", "bg"), ("B", "bp")])
    violations = check_control_flow(software, cfg)
    assert [v.mode for v in violations] == [NORMAL]
    assert set(violations[0].feedback.literals) == {ConnLit("A", "s", "B")}


def test_forbidden_method_called_twice_is_one_violation():
    # both call sites of one thread share the provider, rule and mode
    software = _two_component_model(
        "thread t on time (period=9 jitter=0) task a1 onto R wcet=1 bcet=1 "
        "RPC s.go() task a2 onto R wcet=1 bcet=1 RPC s.go() RPC s.prep()"
    )
    cfg = _cfg(software, [("A", "a1"), ("A", "a2"), ("B", "bg"), ("B", "bp")])
    violations = check_control_flow(software, cfg)
    assert [v.message() for v in violations] == [
        "control_flow: B.s.go reachable before prep via A/t",
    ]


def test_init_mode_call_satisfies_normal_callers():
    software = _two_component_model(
        "thread boot on initialization RPC s.prep() "
        "thread t on time (period=9 jitter=0) task a1 onto R wcet=1 bcet=1 RPC s.go()"
    )
    cfg = _cfg(software, [("A", "a1"), ("B", "bg"), ("B", "bp")])
    assert check_control_flow(software, cfg) == []


def test_init_mode_forbidden_call_needs_same_thread_order():
    # an initialization-mode call of the forbidden method is not covered by
    # another thread's initialization-mode call of the prerequisite
    software = _two_component_model(
        "thread boot on initialization RPC s.go() "
        "thread prep_boot on initialization RPC s.prep()"
    )
    cfg = _cfg(software, [("B", "bg"), ("B", "bp")])
    violations = check_control_flow(software, cfg)
    assert [(v.mode, v.thread) for v in violations] == [(INITIALIZATION, "boot")]


def test_dormant_initializer_lands_in_feedback():
    texts = [
        "component A services requires s threads "
        "thread t on time (period=9 jitter=0) task a1 onto R wcet=1 bcet=1 RPC s.go()",
        "component B services provides s threads "
        "thread e_go on RPC s.go() task bg onto R wcet=1 bcet=1 "
        "thread e_prep on RPC s.prep() task bp onto R wcet=1 bcet=1 "
        "control_flow not s.go() until s.prep()",
        "component C services requires s threads thread boot on initialization RPC s.prep()",
    ]
    software = load_software_model(texts, "service s method go () method prep ()")
    cfg = Configuration(
        frozenset({"A", "B"}), frozenset({("A", "s", "B")}),
        {("A", "a1"): "R1", ("B", "bg"): "R1", ("B", "bp"): "R1"},
        (("A", "t"), ("B", "e_go"), ("B", "e_prep")),
    )
    violations = check_control_flow(software, cfg)
    assert len(violations) == 1
    assert set(violations[0].feedback.literals) == {
        ConnLit("A", "s", "B"),
        SelLit("C", False),
    }


def test_thread_modes_follow_a_call_cycle_through_three_components():
    # A/t -> B/sx (RPC) -> C/qz (SIGNAL) -> A/ry (RPC): the components form a
    # cycle, the threads do not; C's initialization thread also reaches A/ry
    texts = [
        "component A services requires s provides r threads "
        "thread t on time (period=9 jitter=0) task a1 onto R wcet=1 bcet=1 RPC s.x() "
        "thread ry on RPC r.y() task a2 onto R wcet=1 bcet=1",
        "component B services provides s requires q threads "
        "thread sx on RPC s.x() task b1 onto R wcet=1 bcet=1 SIGNAL q.z()",
        "component C services provides q requires r threads "
        "thread qz on RPC q.z() task c1 onto R wcet=1 bcet=1 RPC r.y() "
        "thread boot on initialization RPC r.y()",
    ]
    software = load_software_model(texts, "service s method x () service q method z () service r method y ()")
    cfg = Configuration(
        frozenset({"A", "B", "C"}),
        frozenset({("A", "s", "B"), ("B", "q", "C"), ("C", "r", "A")}),
        {}, (),
    )
    assert thread_modes(software, cfg) == {
        ("A", "t"): frozenset({NORMAL}),
        ("A", "ry"): frozenset({NORMAL, INITIALIZATION}),
        ("B", "sx"): frozenset({NORMAL}),
        ("C", "qz"): frozenset({NORMAL}),
        ("C", "boot"): frozenset({INITIALIZATION}),
    }


def test_earlier_prerequisite_routed_elsewhere_lands_in_feedback():
    # A calls p.prep() before s.go(), but its p connection goes to C, so B's
    # ordering is not met; the feedback names the route that broke it
    texts = [
        "component A services requires s requires p threads "
        "thread t on time (period=9 jitter=0) task a1 onto R wcet=1 bcet=1 "
        "RPC p.prep() task a2 onto R wcet=1 bcet=1 RPC s.go()",
        "component B services provides s provides p threads "
        "thread e_go on RPC s.go() task bg onto R wcet=1 bcet=1 "
        "thread e_prep on RPC p.prep() task bp onto R wcet=1 bcet=1 "
        "control_flow not s.go() until p.prep()",
        "component C services provides p threads thread c_prep on RPC p.prep() task cp onto R wcet=1 bcet=1",
    ]
    software = load_software_model(texts, "service s method go () service p method prep ()")
    cfg = Configuration(
        frozenset({"A", "B", "C"}), frozenset({("A", "s", "B"), ("A", "p", "C")}), {}, ()
    )
    violations = check_control_flow(software, cfg)
    assert [(v.message(), v.mode) for v in violations] == [
        ("control_flow: B.s.go reachable before prep via A/t", NORMAL)
    ]
    assert set(violations[0].feedback.literals) == {ConnLit("A", "s", "B"), ConnLit("A", "p", "C")}


def test_normal_violation_names_initializer_routed_elsewhere():
    # D's initialization thread calls s.prep() on C, not on B: B's normal-mode
    # caller A is not covered, and the feedback names D's route
    texts = [
        "component A services requires s threads "
        "thread t on time (period=9 jitter=0) task a1 onto R wcet=1 bcet=1 RPC s.go()",
        "component B services provides s threads "
        "thread e_go on RPC s.go() task bg onto R wcet=1 bcet=1 "
        "thread e_prep on RPC s.prep() task bp onto R wcet=1 bcet=1 "
        "control_flow not s.go() until s.prep()",
        "component C services provides s threads "
        "thread c_go on RPC s.go() task cg onto R wcet=1 bcet=1 "
        "thread c_prep on RPC s.prep() task cp onto R wcet=1 bcet=1",
        "component D services requires s threads thread boot on initialization RPC s.prep()",
    ]
    software = load_software_model(texts, "service s method go () method prep ()")
    cfg = Configuration(
        frozenset({"A", "B", "C", "D"}), frozenset({("A", "s", "B"), ("D", "s", "C")}), {}, ()
    )
    violations = check_control_flow(software, cfg)
    assert [(v.message(), v.mode) for v in violations] == [
        ("control_flow: B.s.go reachable before prep via A/t", NORMAL)
    ]
    assert set(violations[0].feedback.literals) == {ConnLit("A", "s", "B"), ConnLit("D", "s", "C")}


def _configurations(models):
    """(software, configuration) for every complete connection assignment
    of each software model; control flow reads no mapping or priority."""
    for software in models:
        for selected, conns in assignments(software, pinned_components(software)):
            connections = frozenset((c, s, p) for (c, s), p in conns.items())
            yield software, Configuration(selected, connections, {}, ())


def _random_configurations(seeds: range):
    return _configurations(random_software_system(random.Random(seed)).software for seed in seeds)


def _init_prerequisite_model(rng: random.Random):
    """A small software model in which the prerequisite of an ordering
    rule is called in initialization mode.  B, and sometimes C, provide
    `s` (go, prep) under the rule "not s.go() until s.prep()"; pinned
    clients call s.go() in normal mode, some after s.prep(); initializers
    I1 and sometimes I2 call s.prep(), sometimes after s.go(), from an
    initialization thread and are selected only as a provider of `u`,
    which U may provide instead, so in some assignments they stay dormant."""

    def thread(head: str, task: str, calls: list[str]) -> str:
        return f"thread {head} task {task} onto R wcet=1 bcet=1 " + " ".join(f"RPC {c}()" for c in calls)

    def provider(name: str, rule: bool) -> str:
        text = (f"component {name} services provides s threads "
                + thread("e_go on RPC s.go()", f"{name.lower()}g", []) + " "
                + thread("e_prep on RPC s.prep()", f"{name.lower()}p", []))
        return text + (" control_flow not s.go() until s.prep()" if rule else "")

    texts = [provider("B", True)]
    if rng.random() < 0.6:
        texts.append(provider("C", rng.random() < 0.5))
    for name in ["I1", "I2"][: rng.randint(1, 2)]:
        calls = ["s.go", "s.prep"] if rng.random() < 0.3 else ["s.prep"]
        texts.append(
            f"component {name} services requires s provides u threads "
            + thread("serve on RPC u.get()", f"{name.lower()}u", []) + " "
            + thread("boot on initialization", f"{name.lower()}b", calls)
        )
    if rng.random() < 0.5:
        texts.append("component U services provides u threads " + thread("serve on RPC u.get()", "uu", []))
    for name in ["A1", "A2"][: rng.randint(1, 2)]:
        calls = rng.choice([["s.go"], ["s.prep", "s.go"], ["s.go", "s.prep"]])
        if rng.random() < 0.7:
            calls.insert(rng.randint(0, len(calls)), "u.get")
        requires = "requires s requires u" if "u.get" in calls else "requires s"
        threads = thread("t on time (period=9 jitter=0)", f"{name.lower()}t", calls)
        if rng.random() < 0.3:
            threads += " " + thread("boot on initialization", f"{name.lower()}b", ["s.prep"])
        texts.append(f"component {name} services {requires} threads {threads}")
    return load_software_model(texts, "service s method go () method prep () service u method get ()")


def _has_rules(software, cfg) -> bool:
    return any(software.contracts[p].control_flow for p in cfg.selected)


def test_rules_first_check_matches_the_full_index(software_pre, software_post, corpus_dir):
    # Seeds 0..199 hold only 17 configurations with a rule, 2 of them
    # violated; 0..1999 hold 201 and 24.  The corpus and the seeded
    # initialization-prerequisite models add rules whose prerequisite is
    # called in initialization mode.
    mutant = parse_contract((corpus_dir / "updates" / "P_no_init.contract").read_text())
    corpus = [software_pre, software_post, apply_update(software_pre, UpdateRequest.update(mutant))]
    init_prerequisite = (_init_prerequisite_model(random.Random(seed)) for seed in range(40))
    checked = violated = 0
    for software, cfg in itertools.chain(
        _configurations(corpus), _random_configurations(range(2000)), _configurations(init_prerequisite)
    ):
        violations = check_control_flow(software, cfg)
        assert violations == reference_check_control_flow(software, cfg), cfg
        checked += _has_rules(software, cfg)
        violated += bool(violations)
    assert checked > 150 and violated > 15


def test_selection_without_rules_walks_no_thread_modes(monkeypatch):
    def refuse(software, cfg):
        raise AssertionError("thread_modes called on a selection without rules")

    monkeypatch.setattr(nego.controlflow, "thread_modes", refuse)
    ruleless = 0
    for software, cfg in _random_configurations(range(200)):
        if not _has_rules(software, cfg):
            assert check_control_flow(software, cfg) == []
            ruleless += 1
    assert ruleless > 100
