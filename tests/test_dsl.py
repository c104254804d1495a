import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nego.dsl import (
    CallStep,
    Contract,
    DslSyntaxError,
    DslValidationError,
    Initialization,
    MethodRef,
    RpcEntry,
    ServiceMethod,
    TaskStep,
    Thread,
    TimeActivation,
    TimingReq,
    NotUntilReq,
    load_software_model,
    parse_contract,
    parse_service_repository,
    render_contract,
    render_service_repository,
)

GOLDEN_T = Contract(
    component="T",
    requires=frozenset({"object_recognition"}),
    provides=frozenset({"trajectory_calculation"}),
    threads=(
        Thread(
            "trajectory_calculation_get",
            RpcEntry(MethodRef("trajectory_calculation", "get")),
            (
                TaskStep("tc1", "CPU_type_1", 5, 1),
                CallStep("RPC", MethodRef("object_recognition", "get")),
                TaskStep("tc2", "CPU_type_1", 5, 1),
            ),
        ),
        Thread(
            "trajectory_calculation_init",
            RpcEntry(MethodRef("trajectory_calculation", "init")),
            (TaskStep("tci", "CPU_type_1", 10, 5),),
        ),
    ),
    timings=(TimingReq(100, MethodRef("object_recognition", "get")),),
    control_flow=(
        NotUntilReq(
            MethodRef("trajectory_calculation", "get"),
            MethodRef("trajectory_calculation", "init"),
        ),
    ),
)

GOLDEN_P = Contract(
    component="P",
    requires=frozenset({"trajectory_calculation"}),
    threads=(
        Thread(
            "init",
            Initialization(),
            (CallStep("RPC", MethodRef("trajectory_calculation", "init")),),
        ),
        Thread(
            "park_assist",
            TimeActivation(200, 5),
            (
                TaskStep("p1", "CPU_type_1", 3, 1),
                CallStep("RPC", MethodRef("trajectory_calculation", "get")),
                TaskStep("p2", "CPU_type_1", 7, 1),
            ),
        ),
    ),
    timings=(TimingReq(150, "park_assist"),),
)

GOLDEN_L = Contract(
    component="L",
    requires=frozenset({"object_masking", "object_recognition", "steering"}),
    threads=(
        Thread(
            "lane_assist",
            TimeActivation(100, 5),
            (
                TaskStep("la1", "CPU_type_1", 3, 1),
                CallStep("RPC", MethodRef("object_recognition", "get")),
                TaskStep("la2", "CPU_type_1", 3, 1),
                CallStep("RPC", MethodRef("object_masking", "get")),
                TaskStep("la3", "CPU_type_1", 10, 5),
                CallStep("RPC", MethodRef("steering", "setAngle", "int value")),
                TaskStep("la4", "CPU_type_1", 4, 1),
            ),
        ),
    ),
    timings=(TimingReq(75, "lane_assist"),),
)


def test_golden_t(corpus_dir):
    parsed = parse_contract((corpus_dir / "contracts" / "T.contract").read_text())
    assert parsed == GOLDEN_T


def test_golden_p(corpus_dir):
    parsed = parse_contract((corpus_dir / "contracts" / "P.contract").read_text())
    assert parsed == GOLDEN_P


def test_golden_l(corpus_dir):
    parsed = parse_contract((corpus_dir / "updates" / "L.contract").read_text())
    assert parsed == GOLDEN_L


def test_round_trip_all_corpus_contracts(corpus_dir):
    paths = sorted((corpus_dir / "contracts").glob("*.contract"))
    paths += sorted((corpus_dir / "updates").glob("*.contract"))
    assert len(paths) == 7
    for path in paths:
        first = parse_contract(path.read_text())
        again = parse_contract(render_contract(first))
        assert again == first, path.name


def test_repository_round_trip(corpus_dir):
    repo = parse_service_repository((corpus_dir / "services.repo").read_text())
    assert sorted(repo) == [
        "object_masking",
        "object_recognition",
        "steering",
        "trajectory_calculation",
    ]
    assert repo["object_recognition"].max_clients == 1
    assert repo["steering"].method("setAngle") == ServiceMethod("setAngle", "int value")
    assert parse_service_repository(render_service_repository(repo)) == repo


def test_repository_empty():
    assert parse_service_repository("") == {}


def test_args_kept_verbatim():
    contract = parse_contract(
        "component X services requires s threads thread t on time (period=10 jitter=0) "
        "task a onto R wcet=1 bcet=1 RPC s.m(int x, pair(int, int) y)"
    )
    (_, call), = list(contract.threads[0].calls())
    assert call.ref.args == "int x, pair(int, int) y"


def test_digit_bound_does_not_depend_on_int_limit():
    # 640 digits convert under the lowest limit CPython lets anyone set on
    # int() from text, so the bound reads the same on every interpreter
    text = "component X threads thread t on time (period={} jitter=0)"
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(640)
    try:
        assert parse_contract(text.format("9" * 640)).threads[0].activation.period == 10**640 - 1
        with pytest.raises(DslValidationError) as caught:
            parse_contract(text.format("9" * 641))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert str(caught.value) == "line 1, column 46: period value has 641 digits, more than 640"


def test_whitespace_is_insignificant(corpus_dir):
    text = (corpus_dir / "contracts" / "P.contract").read_text()
    squashed = " ".join(text.split())
    assert parse_contract(squashed) == parse_contract(text)


# Each row pins the message, line and column of one raise site that input
# text can reach.  The timing-target lookup in the repository check is not
# among them: every method a timing target may name is called or entered by
# the same contract, so the signature check meets it first.
REJECTS = [
    ("component", DslSyntaxError, "line 1, column 10: expected component name, found 'end of input'"),
    ("component X threads thread t on bus", DslSyntaxError,
     "line 1, column 33: expected RPC, initialization, or time, found 'bus'"),
    ("component X threads thread t on time (period=0 jitter=0) task a onto R wcet=1 bcet=1", DslValidationError,
     "line 1, column 46: period must be positive"),
    ("component X threads thread t on time (period=5 jitter=5) task a onto R wcet=1 bcet=1", DslValidationError,
     "line 1, column 55: jitter must be smaller than the period"),
    ("component X threads thread t on time (period=5 jitter=0) task a onto R wcet=1 bcet=2", DslValidationError,
     "line 1, column 84: bcet 2 exceeds wcet 1"),
    ("component X threads thread t on time (period=5 jitter=0) task a onto R wcet=0 bcet=0", DslValidationError,
     "line 1, column 77: wcet must be positive"),
    ("component X threads thread t on initialization RPC s.m(", DslSyntaxError,
     "line 1, column 56: unterminated argument list"),
    ("component X timings timing 5 ghost", DslValidationError,
     "line 1, column 28: timing target 'ghost' is not a thread of this component"),
    ("component X services requires s timings timing 5 s.m()", DslValidationError,
     "line 1, column 48: timing target s.m() is never called by this component"),
    # a provider bounds its own service by naming the entry thread, not the method
    ("component X services provides s threads thread t on RPC s.m() task a onto R wcet=1 bcet=1 timings timing 5 s.m()",
     DslValidationError, "line 1, column 106: timing target s.m() is never called by this component"),
    ("component X control_flow not s.m() until s.k()", DslValidationError,
     "line 1, column 30: control-flow reference s.m() names a service this component neither requires nor provides"),
    ("component X threads thread t on initialization task a onto R wcet=1 bcet=1 thread t on initialization task b onto R wcet=1 bcet=1",
     DslValidationError, "line 1, column 83: duplicate thread 't'"),
    ("component X { }", DslSyntaxError, "line 1, column 13: unexpected character '{'"),
    # blanks and digits are ASCII only
    ("component X\f", DslSyntaxError, "line 1, column 12: unexpected character '\\x0c'"),
    ("component X threads thread t on time (period=\u0663 jitter=0)", DslSyntaxError,
     "line 1, column 46: unexpected character '\u0663'"),
    ("component X\nthreads\n  thread t on bus", DslSyntaxError,
     "line 3, column 15: expected RPC, initialization, or time, found 'bus'"),
    # lines break at '\n' only; '\r' and '\t' are one column each
    ("component X\r\nthreads\r\n  thread t on bus", DslSyntaxError,
     "line 3, column 15: expected RPC, initialization, or time, found 'bus'"),
    ("component X threads\n\tthread t on bus", DslSyntaxError,
     "line 2, column 14: expected RPC, initialization, or time, found 'bus'"),
    ("component X\n\n  {", DslSyntaxError, "line 3, column 3: unexpected character '{'"),
    ("component\n\n\n", DslSyntaxError, "line 4, column 1: expected component name, found 'end of input'"),
    ("component X threads thread t in initialization", DslSyntaxError, "line 1, column 30: expected 'on', found 'in'"),
    ("component thread", DslSyntaxError, "line 1, column 11: expected component name, found keyword 'thread'"),
    ("component X timings timing five t", DslSyntaxError, "line 1, column 28: expected latency bound, found 'five'"),
    ("component X threads thread t on RPC s m()", DslSyntaxError, "line 1, column 39: expected '.', found 'm'"),
    ("component X threads task", DslSyntaxError, "line 1, column 21: unexpected token 'task'"),
    ("component X 5", DslSyntaxError, "line 1, column 13: unexpected token '5'"),
    ("component X control_flow not s.m(int) until s.k()", DslSyntaxError,
     "line 1, column 30: argument list must be empty here"),
    ("component X threads thread t on time (period=5 jitter=0) task a onto R wcet=1 bcet=0", DslValidationError,
     "line 1, column 84: bcet must be positive"),
    ("component X timings timing 0 t", DslValidationError, "line 1, column 28: latency bound must be positive"),
    ("component X timings timing 5 s.m(x)", DslSyntaxError, "line 1, column 30: timing targets take no arguments"),
    ("component X services requires s requires s", DslValidationError,
     "line 1, column 42: duplicate requires declaration for 's'"),
    ("component X services requires s provides s", DslValidationError,
     "line 1, column 42: service 's' both required and provided"),
    ("component X threads thread t on RPC s.m()", DslValidationError,
     "line 1, column 37: entry method s.m() names a service the component does not provide"),
    ("component X services provides s threads thread a on RPC s.m() thread b on RPC s.m()", DslValidationError,
     "line 1, column 79: duplicate entry thread for s.m"),
    ("component X threads thread t on initialization task a onto R wcet=1 bcet=1 task a onto R wcet=1 bcet=1",
     DslValidationError, "line 1, column 81: duplicate task 'a'"),
    ("component X threads thread t on initialization RPC s.m()", DslValidationError,
     "line 1, column 52: call s.m() names a service the component does not require"),
    ("component X timings timing 5 s.m()", DslValidationError,
     "line 1, column 28: timing target s.m() names a service this component neither requires nor provides"),
    # an argument list may span lines; positions after it count them
    ("component X services requires s threads thread t on initialization RPC s.m(a,\n  (b)", DslSyntaxError,
     "line 2, column 6: unterminated argument list"),
    ("component X services requires s threads thread t on initialization RPC s.m(a\n  b) task", DslSyntaxError,
     "line 2, column 10: expected task name, found 'end of input'"),
]


@pytest.mark.parametrize(
    "text, error, message",
    [pytest.param(text, error, message, id=f"{text}-{error.__name__}") for text, error, message in REJECTS],
)
def test_rejects(text, error, message):
    with pytest.raises(error) as caught:
        parse_contract(text)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("service a service a", DslValidationError, "line 1, column 19: duplicate service 'a'"),
        ("service a max_clients 0", DslValidationError, "line 1, column 23: max_clients must be at least 1"),
        ("service\n  a\n  max_clients\t0", DslValidationError, "line 3, column 15: max_clients must be at least 1"),
        ("service a method m() method m()", DslValidationError, "line 1, column 29: duplicate method 'm'"),
        ("method m()", DslSyntaxError, "line 1, column 1: unexpected token 'method'"),
        ("service a max_clients many", DslSyntaxError, "line 1, column 23: expected client bound, found 'many'"),
        ("service a method m(", DslSyntaxError, "line 1, column 20: unterminated argument list"),
    ],
)
def test_repository_rejects(text, error, message):
    with pytest.raises(error) as caught:
        parse_service_repository(text)
    assert str(caught.value) == message


CALLER = "component X services requires s threads thread t on initialization RPC s.m(int v)"
CONTROLLER = "component X services provides s control_flow not s.m() until s.k()"


@pytest.mark.parametrize(
    "texts, repository, message",
    [
        ([CALLER, CALLER], "service s method m(int v)", "duplicate component 'X'"),
        ([CALLER], "service s method k()", "line 1, column 72: service 's' has no method 'm'"),
        ([CALLER], "service s method m(long v)",
         "line 1, column 72: signature mismatch for s.m(int v): repository declares (long v)"),
        ([CONTROLLER], "service s method k()", "line 1, column 50: service 's' has no method 'm'"),
        ([CONTROLLER], "service s method m()", "line 1, column 62: service 's' has no method 'k'"),
    ],
)
def test_model_rejects(texts, repository, message):
    with pytest.raises(DslValidationError) as caught:
        load_software_model(texts, repository)
    assert str(caught.value) == message


def test_duplicate_component_rejected(corpus_dir):
    text = (corpus_dir / "contracts" / "P.contract").read_text()
    with pytest.raises(DslValidationError):
        load_software_model([text, text], "")


def test_repository_signature_mismatch(corpus_dir):
    texts = [p.read_text() for p in sorted((corpus_dir / "contracts").glob("*.contract"))]
    repo = (corpus_dir / "services.repo").read_text().replace("int value", "long value")
    with pytest.raises(DslValidationError):
        load_software_model(texts + [(corpus_dir / "updates" / "S.contract").read_text()], repo)


def test_unknown_service_rejected():
    text = "component X services requires nothing threads thread t on time (period=5 jitter=0) task a onto R wcet=1 bcet=1"
    with pytest.raises(DslValidationError) as caught:
        load_software_model([text], "")
    # the check runs on the parsed contract, which keeps no position for it
    assert (caught.value.line, caught.value.col) == (None, None)
    assert str(caught.value) == "component 'X' references unknown service 'nothing'"


names = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s not in ("component", "services", "requires", "provides", "threads",
                        "thread", "on", "task", "onto", "wcet", "bcet", "time",
                        "period", "jitter", "timings", "timing", "control_flow",
                        "not", "until", "service", "method", "max_clients", "RPC",
                        "SIGNAL", "initialization")
)


@st.composite
def contract_texts(draw):
    comp = draw(names)
    n_threads = draw(st.integers(1, 3))
    lines = [f"component {comp}", "threads"]
    for i in range(n_threads):
        period = draw(st.integers(1, 50))
        jitter = draw(st.integers(0, period - 1))
        lines.append(f"thread th{i} on time (period={period} jitter={jitter})")
        for j in range(draw(st.integers(1, 3))):
            wcet = draw(st.integers(1, 9))
            bcet = draw(st.integers(1, wcet))
            lines.append(f"task k{i}_{j} onto {draw(names)} wcet={wcet} bcet={bcet}")
    return "\n".join(lines)


@given(contract_texts())
def test_parse_render_parse_fixpoint(text):
    first = parse_contract(text)
    rendered = render_contract(first)
    assert parse_contract(rendered) == first
    assert render_contract(parse_contract(rendered)) == rendered
