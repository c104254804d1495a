import hashlib
import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import nego.dsl
from nego.dsl import (
    MAX_DIGITS,
    CallStep,
    Contract,
    DslError,
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
from systems import deep_texts, revdl_texts

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


# perfbench's traced run (`perfbench/worker.install`) wraps these module
# attributes by name, so each must stay a module-level function that its
# callers look up through the module.
@pytest.mark.parametrize(
    "module, name",
    [("nego.dsl", "parse_contract"), ("nego.dsl", "load_software_model"), ("nego.cli", "parse_contract"),
     ("nego.cli", "load_software_model"), ("nego.randsys", "load_software_model")],
)
def test_traced_attributes_exist(module, name):
    assert callable(getattr(importlib.import_module(module), name))


def test_load_parses_each_contract_through_the_module_global(monkeypatch):
    texts, repository = deep_texts(5)
    parsed = []

    def counting(text):
        parsed.append(text)
        return parse_contract(text)

    monkeypatch.setattr(nego.dsl, "parse_contract", counting)
    model = load_software_model(texts, repository)
    assert parsed == texts
    assert len(model.contracts) == 5


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


# ---------------------------------------------------------------------------
# A digest over texts the corpus fuzz (scripts/fuzz_parsers.py) never holds:
# SIGNAL steps, method timing targets, nested and multi-line argument lists,
# client bounds, CRLF and tab layouts, keywords where a name belongs, integers
# over MAX_DIGITS, the deep and revdl contract sets, and seeded mutations of
# all of these.  Any change to a parsed value, a position or a message moves it.

_spec = importlib.util.spec_from_file_location(
    "fuzz_parsers", Path(__file__).resolve().parent.parent / "scripts" / "fuzz_parsers.py"
)
fuzz_parsers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fuzz_parsers)

FRAME = "frame(int id,\n      list(byte (x)) ) f"
SIGNALS = (
    "component S\n  services\n    requires log\n    requires bus\n    provides svc\n  threads\n"
    "    thread serve on RPC svc.get(int x)\n"
    "      task a onto CPU wcet=3 bcet=1\n"
    "      SIGNAL log.put(int level, text msg)\n"
    f"      RPC bus.send({FRAME})\n"
    "      SIGNAL bus.wake()\n"
    "    thread tick on time (period=40 jitter=3)\n"
    "      SIGNAL log.put(int level, text msg)\n"
    "      task b onto DSP wcet=7 bcet=7\n"
    "  timings\n    timing 30 serve\n    timing 12 log.put()\n    timing 9 bus.send(  )\n"
    "  control_flow\n    not bus.send() until bus.wake()\n    not svc.get() until log.put()\n"
)
REPOSITORY = (
    "service log\n  max_clients 3\n  method put (int level, text msg)\n"
    f"service bus max_clients 1 method send({FRAME}) method wake()\n"
    "service svc\n  method get (int x)\n"
)
TOO_LONG = "9" * (MAX_DIGITS + 1)
CONTRACTS = {
    "signals": SIGNALS,
    "signals crlf": SIGNALS.replace("\n", "\r\n"),
    "signals tabs": SIGNALS.replace("  ", "\t"),
    "signals crlf tabs": SIGNALS.replace("\n", "\r\n").replace("  ", "\t"),
    "signals one line": " ".join(SIGNALS.split()),
    "provider timing target": SIGNALS.replace("timing 30 serve", "timing 30 svc.get()"),
    "signal arguments unbalanced": SIGNALS.replace("(int level, text msg)", "(int level, (text msg)", 1),
    "signal arguments closed twice": SIGNALS.replace("(int level, text msg)", "(int level)) text msg)", 1),
    "names that are not keywords": "component period services requires wcet threads thread jitter on initialization\n"
    "  task bcet onto period wcet=1 bcet=1 SIGNAL wcet.bcet() timings timing 4 jitter timing 5 wcet.bcet()",
    "keyword thread name": "component X threads thread task on initialization",
    "keyword task name": "component X threads thread t on initialization task SIGNAL onto R wcet=1 bcet=1",
    "keyword method name": "component X services requires s threads thread t on initialization RPC s.SIGNAL()",
    "keyword service": "component X services provides RPC",
    "keyword timing target": "component X timings timing 5 until",
    "keyword resource type": "component X threads thread t on initialization task a onto task wcet=1 bcet=1",
    "long wcet": f"component X threads thread t on initialization task a onto R wcet={TOO_LONG} bcet=1",
    "long jitter": f"component X threads thread t on time (period=5 jitter={TOO_LONG})",
    "long bound": f"component X timings timing {TOO_LONG} t",
    "widest wcet": f"component X threads thread t on initialization task a onto R wcet={TOO_LONG[1:]} bcet=1",
}
REPOSITORIES = {
    "repository": REPOSITORY,
    "repository crlf tabs": REPOSITORY.replace("\n", "\r\n").replace("  ", "\t"),
    "repository keyword method": "service s method max_clients()",
    "repository keyword service": "service method method m()",
    "repository names that are not keywords": "service wcet max_clients 2 method period() method jitter(bcet)",
    "repository long bound": f"service s max_clients {TOO_LONG}",
    "repository bound twice": "service s max_clients 2 max_clients 3",
}
MODELS = {
    "signals model": ([SIGNALS], REPOSITORY),
    "signals crlf tabs model": ([CONTRACTS["signals crlf tabs"]], REPOSITORIES["repository crlf tabs"]),
    "signals one-line model": ([CONTRACTS["signals one line"]], REPOSITORY),
    "deep(12)": deep_texts(12),
    "revdl(12)": revdl_texts(12),
    # both name their components C0000...: the seventh text is refused
    "deep(6) and revdl(6)": (deep_texts(6)[0] + revdl_texts(6)[0], deep_texts(6)[1]),
}
MUTATIONS = 400


def _outcome(read, *args) -> str:
    try:
        return fuzz_parsers.canonical(read(*args))
    except DslError as exc:
        return f"{type(exc).__name__} from {exc.source}: {exc}"


def _parse_outcomes():
    """(name, outcome) of every input, mutations last."""
    for name, text in CONTRACTS.items():
        yield name, _outcome(parse_contract, text)
    for name, text in REPOSITORIES.items():
        yield name, _outcome(parse_service_repository, text)
    for name, (texts, repository) in MODELS.items():
        yield name, _outcome(load_software_model, texts, repository)
    bases = [(name, parse_contract, text) for name, text in CONTRACTS.items()]
    bases += [(name, parse_service_repository, text) for name, text in REPOSITORIES.items()]
    for name, (texts, repository) in {"deep(4)": deep_texts(4), "revdl(3)": revdl_texts(3)}.items():
        bases += [(f"{name} contract {i}", parse_contract, text) for i, text in enumerate(texts)]
        bases.append((f"{name} repository", parse_service_repository, repository))
    pieces = sorted({piece for _, _, text in bases for piece in fuzz_parsers.TOKEN.findall(text)})
    rng = random.Random(0)
    for index in range(MUTATIONS):
        name, read, text = rng.choice(bases)
        yield f"mutation {index} of {name}", _outcome(read, fuzz_parsers.mutate(text, pieces, rng))


PARSE_DIGEST = "c7b2881843904aec78c1bd1cfff2d49333ae873085c10dfe398410cdf5c81af6"


def test_parse_digest():
    digest = hashlib.sha256()
    for name, outcome in _parse_outcomes():
        digest.update(f"{name}\n{outcome}\n".encode())
    assert digest.hexdigest() == PARSE_DIGEST
