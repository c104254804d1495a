import pytest
from hypothesis import given
from hypothesis import strategies as st

from nego.dsl import DslValidationError, parse_contract
from nego.model import (
    Configuration,
    ModelError,
    PlatformModel,
    Resource,
    UpdateError,
    UpdateRequest,
    apply_update,
    apply_updates,
    check_well_formed,
    parse_configuration,
    parse_platform,
    pinned_components,
    render_configuration,
    render_platform,
    resolve_names,
)


def test_platform_round_trip(platform):
    assert platform.resources == (Resource("CPU1", "CPU_type_1"),)
    assert parse_platform(render_platform(platform)) == platform


def test_platform_rejects_bad_line():
    with pytest.raises(ModelError):
        parse_platform("cpu CPU1 kind fast")


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "platform declares no resources"),
        ("\n  \n", "platform declares no resources"),
        ("resource R1 type CPU\nresource R2 type GPU\nresource R1 type GPU\n", "duplicate resource name in platform"),
    ],
)
def test_platform_rejects_no_resources_and_duplicate_names(text, message):
    with pytest.raises(ModelError, match=f"^{message}$"):
        parse_platform(text)


def test_platform_rejects_arrow_in_resource_name():
    # a configuration writes `component.task -> resource`, so it could not name this one
    with pytest.raises(ModelError, match="^platform line 2: resource name 'CPU1->x' holds '->'$"):
        parse_platform("resource CPU1 type CPU_type_1\nresource CPU1->x type CPU_type_1\n")


def test_configuration_round_trip(current_config):
    assert parse_configuration(render_configuration(current_config)) == current_config


def test_configuration_ranks(current_config):
    ranks = current_config.ranks()
    assert ranks[("O2", "object_masking_get")] == 0
    assert ranks[("T", "trajectory_calculation_init")] == 5
    assert len(ranks) == 6


def test_provider_of(current_config):
    assert current_config.provider_of("P", "trajectory_calculation") == "T"
    assert current_config.provider_of("P", "steering") is None


def test_configuration_rejects_rank_gap():
    text = "[priorities]\n0 A.t\n2 B.t\n"
    with pytest.raises(ModelError):
        parse_configuration(text)


@pytest.mark.parametrize("rank", ["\u00b2", "\u0660"])
def test_configuration_rejects_non_decimal_rank(rank):
    # a superscript two is a digit to str.isdigit, but int() refuses it; an
    # Arabic-Indic zero is decimal to str.isdecimal and int(), but the
    # contract language is ASCII-only
    with pytest.raises(ModelError, match="^configuration line 2: expected '<rank> component.thread'$"):
        parse_configuration(f"[priorities]\n{rank} A.t\n")


def test_configuration_rejects_unknown_section():
    with pytest.raises(ModelError):
        parse_configuration("[stuff]\nx\n")


def test_pinned_components(software_pre, software_post):
    assert pinned_components(software_pre) == frozenset({"P"})
    assert pinned_components(software_post) == frozenset({"L", "P"})


def test_apply_updates(software_pre, update_requests):
    updated = apply_updates(software_pre, update_requests)
    assert sorted(updated.contracts) == ["L", "O1", "O2", "P", "S", "T"]
    assert sorted(software_pre.contracts) == ["O1", "O2", "P", "T"]


def test_apply_update_errors(software_pre):
    with pytest.raises(UpdateError):
        apply_update(software_pre, UpdateRequest.add(software_pre.contracts["P"]))
    with pytest.raises(UpdateError):
        apply_update(software_pre, UpdateRequest.remove("S"))
    with pytest.raises(UpdateError):
        apply_update(software_pre, UpdateRequest.update(parse_contract("component ZZ")))


def test_apply_update_checks_contract_against_repository(software_pre):
    # an added or updated contract must fit the service repository, like
    # an installed one; the model is left untouched
    provider = "component Z services provides steering threads thread e on RPC steering.setAngle({}) "
    with pytest.raises(DslValidationError, match="signature mismatch for steering.setAngle"):
        apply_update(software_pre, UpdateRequest.add(parse_contract(provider.format("float value"))))
    with pytest.raises(DslValidationError, match="^component 'T' references unknown service 'ghost'$"):
        apply_update(software_pre, UpdateRequest.update(parse_contract("component T services provides ghost")))
    with pytest.raises(DslValidationError, match="^line 1, column 64: service 'steering' has no method 'stop'$"):
        apply_update(software_pre, UpdateRequest.update(parse_contract(
            "component T services provides steering threads thread e on RPC steering.stop()"
        )))
    added = apply_update(software_pre, UpdateRequest.add(parse_contract(provider.format("int value"))))
    assert sorted(added.contracts) == ["O1", "O2", "P", "T", "Z"]
    assert sorted(software_pre.contracts) == ["O1", "O2", "P", "T"]


def test_well_formed_current(current_config, software_pre, platform):
    assert check_well_formed(current_config, software_pre, platform) == []


def test_well_formed_catches_missing_provider(current_config, software_pre, platform):
    broken = Configuration(
        current_config.selected,
        frozenset({("P", "trajectory_calculation", "T")}),
        current_config.mapping,
        current_config.priorities,
    )
    violations = check_well_formed(broken, software_pre, platform)
    assert any(v.condition == "2" for v in violations)


def test_well_formed_catches_self_connection(current_config, software_pre, platform):
    broken = Configuration(
        current_config.selected,
        current_config.connections | {("T", "object_recognition", "T")},
        current_config.mapping,
        current_config.priorities,
    )
    violations = check_well_formed(broken, software_pre, platform)
    assert any("itself" in v.message for v in violations)


def test_well_formed_catches_unmapped_task(current_config, software_pre, platform):
    mapping = dict(current_config.mapping)
    del mapping[("P", "p1")]
    broken = Configuration(
        current_config.selected, current_config.connections, mapping, current_config.priorities
    )
    violations = check_well_formed(broken, software_pre, platform)
    assert any(v.condition == "3" and "not mapped" in v.message for v in violations)


def test_well_formed_catches_missing_priority(current_config, software_pre, platform):
    broken = Configuration(
        current_config.selected,
        current_config.connections,
        current_config.mapping,
        current_config.priorities[:-1],
    )
    violations = check_well_formed(broken, software_pre, platform)
    assert any(v.condition == "4" for v in violations)


def _with(cfg, connections=None, mapping=None, priorities=None):
    return Configuration(
        cfg.selected,
        cfg.connections if connections is None else connections,
        cfg.mapping if mapping is None else mapping,
        cfg.priorities if priorities is None else priorities,
    )


def test_well_formed_reports_every_violation(current_config, software_pre):
    # one configuration per message, each printed as `nego validate` prints it
    platform = parse_platform("resource CPU1 type CPU_type_1\nresource G1 type GPU")
    cfg = current_config
    cases = [
        (
            _with(cfg, connections=cfg.connections | {("T", "object_recognition", "O1")}),
            [
                "[1] T -> object_recognition -> O1: connection endpoint not selected",
                "[2] T -> object_recognition: 2 providers connected, need exactly 1",
            ],
        ),
        (
            _with(cfg, connections=cfg.connections | {("O2", "trajectory_calculation", "T")}),
            ["[1] O2 -> trajectory_calculation -> T: O2 does not require trajectory_calculation"],
        ),
        (
            _with(cfg, connections=(cfg.connections - {("P", "trajectory_calculation", "T")})
                  | {("P", "trajectory_calculation", "O2")}),
            ["[1] P -> trajectory_calculation -> O2: O2 does not provide trajectory_calculation"],
        ),
        (
            _with(cfg, mapping={**cfg.mapping, ("P", "p1"): "G1"}),
            ["[3] P.p1: needs CPU_type_1, mapped to G1 of type GPU"],
        ),
        (
            _with(cfg, mapping={**cfg.mapping, ("O1", "or1"): "CPU1"}),
            ["[3] O1.or1: mapped task does not belong to a selected component"],
        ),
        (
            _with(cfg, priorities=cfg.priorities + (("O1", "object_recognition_get"),)),
            ["[4] O1.object_recognition_get: priority assigned to a thread of an unselected component"],
        ),
        (
            _with(cfg, priorities=cfg.priorities + (("P", "init"),)),
            ["[priority_strict] P.init: thread listed more than once"],
        ),
    ]
    for broken, expected in cases:
        assert [str(v) for v in check_well_formed(broken, software_pre, platform)] == expected


def test_well_formed_catches_max_clients(software_post, platform, cfg_lane_on_o2):
    overloaded = Configuration(
        cfg_lane_on_o2.selected,
        (cfg_lane_on_o2.connections - {("T", "object_recognition", "O1")})
        | {("T", "object_recognition", "O2")},
        cfg_lane_on_o2.mapping,
        cfg_lane_on_o2.priorities,
    )
    violations = check_well_formed(overloaded, software_post, platform)
    assert any(v.condition == "max_clients" for v in violations)


def test_well_formed_unknown_component_raises(current_config, software_pre, platform):
    broken = Configuration(
        current_config.selected | {"GHOST"},
        current_config.connections,
        current_config.mapping,
        current_config.priorities,
    )
    with pytest.raises(ModelError):
        check_well_formed(broken, software_pre, platform)


def test_resolve_names_without_platform(current_config, software_pre, platform):
    remapped = Configuration(
        current_config.selected,
        current_config.connections,
        {task: "GPU9" for task in current_config.mapping},
        current_config.priorities,
    )
    # resource names are only validated against a platform
    resolve_names(remapped, software_pre)
    with pytest.raises(ModelError, match="GPU9"):
        resolve_names(remapped, software_pre, platform)
    ghost = Configuration(
        current_config.selected | {"GHOST"},
        current_config.connections,
        current_config.mapping,
        current_config.priorities,
    )
    with pytest.raises(ModelError, match="GHOST"):
        resolve_names(ghost, software_pre)


@pytest.fixture
def cfg_lane_on_o2(cfg_lane_on_o2_lex):
    return cfg_lane_on_o2_lex


quals = st.tuples(
    st.from_regex(r"[A-Z][a-z0-9]{0,4}", fullmatch=True),
    st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True),
)


@given(
    st.frozensets(st.from_regex(r"[A-Z][a-z0-9]{0,5}", fullmatch=True), max_size=4),
    st.dictionaries(quals, st.sampled_from(["R1", "R2"]), max_size=5),
    st.lists(quals, unique=True, max_size=5),
)
def test_configuration_text_round_trip(selected, mapping, priorities):
    cfg = Configuration(selected, frozenset(), mapping, tuple(priorities))
    assert parse_configuration(render_configuration(cfg)) == cfg
