"""Contract language: parsing, validation, and canonical rendering.

The language is keyword-led and whitespace-separated; indentation and line
breaks carry no meaning.  A contract describes one component: the services
it requires and provides, its threads (one activation clause plus a sequence
of task and call steps), latency requirements, and not-until ordering
requirements.  A separate repository file declares service interfaces
(method signatures, optional client bounds).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple

KEYWORDS = frozenset(
    [
        "component",
        "services",
        "requires",
        "provides",
        "threads",
        "thread",
        "on",
        "RPC",
        "SIGNAL",
        "initialization",
        "time",
        "task",
        "onto",
        "timings",
        "timing",
        "control_flow",
        "not",
        "until",
        "service",
        "max_clients",
        "method",
    ]
)


class DslError(ValueError):
    """Base for contract-language errors, with source position when known.

    When one call reads several inputs, `source` is the index of the input
    at fault: `load_software_model` sets it for a contract text (None for
    the repository), `model.apply_updates` for a request.
    """

    source: int | None = None

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        super().__init__(message)


class DslSyntaxError(DslError):
    pass


class DslValidationError(DslError):
    pass


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class MethodRef:
    """A qualified method reference `service.method(args)`.

    The argument list is opaque text, kept verbatim and compared verbatim.
    """

    service: str
    method: str
    args: str = ""
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)

    def __str__(self) -> str:
        return f"{self.service}.{self.method}({self.args})"


class RpcEntry(NamedTuple):
    ref: MethodRef

    def __str__(self) -> str:
        return f"RPC {self.ref}"


class Initialization(NamedTuple):
    def __str__(self) -> str:
        return "initialization"


class TimeActivation(NamedTuple):
    period: int
    jitter: int

    def __str__(self) -> str:
        return f"time (period={self.period} jitter={self.jitter})"


Activation = RpcEntry | Initialization | TimeActivation


@dataclass(frozen=True)
class TaskStep:
    name: str
    resource_type: str
    wcet: int
    bcet: int
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


class CallStep(NamedTuple):
    kind: str  # "RPC" or "SIGNAL"
    ref: MethodRef


Step = TaskStep | CallStep


@dataclass(frozen=True)
class Thread:
    name: str
    activation: Activation
    steps: tuple[Step, ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)

    def calls(self) -> Iterator[tuple[int, CallStep]]:
        for i, step in enumerate(self.steps):
            if isinstance(step, CallStep):
                yield i, step

    def tasks(self) -> Iterator[TaskStep]:
        for step in self.steps:
            if isinstance(step, TaskStep):
                yield step


@dataclass(frozen=True)
class TimingReq:
    bound: int
    # Either a thread name of the same contract or a method the contract calls.
    target: str | MethodRef
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)

    def target_str(self) -> str:
        return self.target if isinstance(self.target, str) else str(self.target)


@dataclass(frozen=True)
class NotUntilReq:
    forbidden: MethodRef
    prerequisite: MethodRef
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


class Contract(NamedTuple):
    component: str
    requires: frozenset[str] = frozenset()
    provides: frozenset[str] = frozenset()
    threads: tuple[Thread, ...] = ()
    timings: tuple[TimingReq, ...] = ()
    control_flow: tuple[NotUntilReq, ...] = ()

    def thread_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.threads)

    def task_names(self) -> tuple[str, ...]:
        return tuple(s.name for t in self.threads for s in t.tasks())

    def entry_thread(self, service: str, method: str) -> Thread | None:
        for t in self.threads:
            a = t.activation
            if isinstance(a, RpcEntry) and a.ref.service == service and a.ref.method == method:
                return t
        return None


class ServiceMethod(NamedTuple):
    name: str
    args: str = ""


class ServiceInterface(NamedTuple):
    name: str
    methods: tuple[ServiceMethod, ...]
    max_clients: int | None = None  # None = unbounded

    def method(self, name: str) -> ServiceMethod | None:
        for m in self.methods:
            if m.name == name:
                return m
        return None


class SoftwareModel(NamedTuple):
    contracts: Mapping[str, Contract]
    interfaces: Mapping[str, ServiceInterface]

    def providers(self, service: str) -> tuple[str, ...]:
        return tuple(sorted(c for c, k in self.contracts.items() if service in k.provides))

    def component_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.contracts))


# ---------------------------------------------------------------------------
# Lexer


# One match per token, and an empty `eof` match at the end of the text; the
# search skips the blanks between tokens.  A run of characters that start no
# token is one `bad` token, so every parenthesis is a token of its own.  ASCII
# classes only: any other character, blank or digit is unexpected.
_TOKEN = re.compile(
    r"(?P<int>[0-9]+)|(?P<id>[A-Za-z_][A-Za-z0-9_]*)|(?P<lparen>\()|(?P<rparen>\))|(?P<dot>\.)|(?P<eq>=)"
    r"|(?P<bad>[^ \t\r\n0-9A-Za-z_().=]+)|(?P<eof>\Z)"
)
# A token is its match: `lastgroup` names its kind, `group()` is its text and
# `start()` its offset in the text.
_Token = re.Match
_PUNCT = {"(": "lparen", ")": "rparen", ".": "dot", "=": "eq"}
_NEWLINE = re.compile("\n")
# The most digits an integer may have, here and in a configuration's ranks.
# 640 is the lowest limit CPython lets anyone set on int() from text, so every
# interpreter converts what passes.
MAX_DIGITS = 640


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str):
        self._text = text
        self._tokens = list(_TOKEN.finditer(text))
        self._index = 0  # of the next token

    # --- token helpers

    @cached_property
    def _line_starts(self) -> list[int]:
        return [0, *(m.end() for m in _NEWLINE.finditer(self._text))]

    def _where(self, offset: int) -> tuple[int, int]:
        """Line and column of the character at `offset`; only a line feed
        starts a line."""
        line = bisect_right(self._line_starts, offset)
        return line, offset - self._line_starts[line - 1] + 1

    def _pos(self, tok: _Token) -> tuple[int, int]:
        return self._where(tok.start())

    def _peek(self) -> _Token:
        tok = self._tokens[self._index]
        if tok.lastgroup == "bad":
            raise DslSyntaxError(f"unexpected character {tok.group()[0]!r}", *self._pos(tok))
        return tok

    def _next(self) -> _Token:
        tok = self._peek()
        self._index += 1
        return tok

    def _raw_args(self) -> str:
        """The opaque text between the '(' token just consumed and its
        matching ')', which is consumed too; no token between is checked."""
        tokens = self._tokens
        depth = 0
        for index in range(self._index, len(tokens)):
            kind = tokens[index].lastgroup
            if kind == "lparen":
                depth += 1
            elif kind == "rparen" and depth:
                depth -= 1
            elif kind == "rparen":
                start = tokens[self._index - 1].start() + 1
                self._index = index + 1
                return self._text[start : tokens[index].start()].strip()
        raise DslSyntaxError("unterminated argument list", *self._where(len(self._text)))

    def _at_kw(self, *kws: str) -> bool:
        return self._peek().group() in kws  # only a name reads as a keyword

    def _take(self, kind: str, expected: str, text: str | None = None) -> _Token:
        """Consume the next token, which must be of `kind` (and read `text`)."""
        tok = self._next()
        if tok.lastgroup != kind or (text is not None and tok.group() != text):
            raise DslSyntaxError(f"expected {expected}, found {tok.group() or 'end of input'!r}", *self._pos(tok))
        return tok

    def _take_kw(self, kw: str) -> _Token:
        return self._take("id", repr(kw), kw)

    def _take_id(self, what: str) -> _Token:
        tok = self._take("id", what)
        if tok.group() in KEYWORDS:
            raise DslSyntaxError(f"expected {what}, found keyword {tok.group()!r}", *self._pos(tok))
        return tok

    def _take_int(self, what: str) -> tuple[int, _Token]:
        tok = self._take("int", what)
        digits = tok.group()
        if len(digits) > MAX_DIGITS:
            raise DslValidationError(f"{what} has {len(digits)} digits, more than {MAX_DIGITS}", *self._pos(tok))
        return int(digits), tok

    def _take_punct(self, sym: str) -> _Token:
        return self._take(_PUNCT[sym], repr(sym))

    def _expect_eof(self) -> None:
        tok = self._peek()
        if tok.lastgroup != "eof":
            raise DslSyntaxError(f"unexpected token {tok.group()!r}", *self._pos(tok))

    # --- grammar

    def _method_ref(self, empty_args: bool = False) -> MethodRef:
        svc = self._take_id("service name")
        self._take_punct(".")
        meth = self._take_id("method name")
        self._take_punct("(")
        args = self._raw_args()
        if empty_args and args:
            raise DslSyntaxError("argument list must be empty here", *self._pos(svc))
        return MethodRef(svc.group(), meth.group(), args, pos=self._pos(svc))

    def _activation(self) -> Activation:
        tok = self._next()
        word = tok.group()  # only a name reads as a keyword
        if word == "RPC":
            return RpcEntry(self._method_ref())
        if word == "initialization":
            return Initialization()
        if word == "time":
            self._take_punct("(")
            period, ptok = self._key_int("period")
            jitter, jtok = self._key_int("jitter")
            self._take_punct(")")
            if period <= 0:
                raise DslValidationError("period must be positive", *self._pos(ptok))
            if jitter >= period:
                raise DslValidationError("jitter must be smaller than the period", *self._pos(jtok))
            return TimeActivation(period, jitter)
        raise DslSyntaxError(
            f"expected RPC, initialization, or time, found {word or 'end of input'!r}", *self._pos(tok)
        )

    def _key_int(self, key: str) -> tuple[int, _Token]:
        self._take_kw(key)
        self._take_punct("=")
        return self._take_int(f"{key} value")

    def _step(self) -> Step:
        word = self._next().group()
        if word == "task":
            name = self._take_id("task name")
            self._take_kw("onto")
            rtype = self._take_id("resource type")
            wcet, wtok = self._key_int("wcet")
            bcet, btok = self._key_int("bcet")
            if wcet <= 0:
                raise DslValidationError("wcet must be positive", *self._pos(wtok))
            if bcet <= 0:
                raise DslValidationError("bcet must be positive", *self._pos(btok))
            if bcet > wcet:
                raise DslValidationError(f"bcet {bcet} exceeds wcet {wcet}", *self._pos(btok))
            return TaskStep(name.group(), rtype.group(), wcet, bcet, pos=self._pos(name))
        if word in ("RPC", "SIGNAL"):
            return CallStep(word, self._method_ref())
        raise AssertionError(word)

    def _thread(self) -> Thread:
        self._take_kw("thread")
        name = self._take_id("thread name")
        self._take_kw("on")
        activation = self._activation()
        steps = []
        while self._at_kw("task", "RPC", "SIGNAL"):
            steps.append(self._step())
        return Thread(name.group(), activation, tuple(steps), pos=self._pos(name))

    def _timing(self) -> TimingReq:
        self._take_kw("timing")
        bound, btok = self._take_int("latency bound")
        if bound <= 0:
            raise DslValidationError("latency bound must be positive", *self._pos(btok))
        name = self._take_id("timing target")
        if self._peek().lastgroup == "dot":
            self._take_punct(".")
            meth = self._take_id("method name")
            self._take_punct("(")
            args = self._raw_args()
            if args:
                raise DslSyntaxError("timing targets take no arguments", *self._pos(name))
            target: str | MethodRef = MethodRef(name.group(), meth.group(), "", pos=self._pos(name))
        else:
            target = name.group()
        return TimingReq(bound, target, pos=self._pos(btok))

    def _not_until(self) -> NotUntilReq:
        tok = self._take_kw("not")
        forbidden = self._method_ref(empty_args=True)
        self._take_kw("until")
        prerequisite = self._method_ref(empty_args=True)
        return NotUntilReq(forbidden, prerequisite, pos=self._pos(tok))

    def parse_contract(self) -> Contract:
        self._take_kw("component")
        name = self._take_id("component name")
        requires: list[_Token] = []
        provides: list[_Token] = []
        if self._at_kw("services"):
            self._next()
            while self._at_kw("requires", "provides"):
                which = self._next().group()
                (requires if which == "requires" else provides).append(self._take_id("service name"))
        threads: list[Thread] = []
        if self._at_kw("threads"):
            self._next()
            while self._at_kw("thread"):
                threads.append(self._thread())
        timings: list[TimingReq] = []
        if self._at_kw("timings"):
            self._next()
            while self._at_kw("timing"):
                timings.append(self._timing())
        control_flow: list[NotUntilReq] = []
        if self._at_kw("control_flow"):
            self._next()
            while self._at_kw("not"):
                control_flow.append(self._not_until())
        self._expect_eof()
        self._check_services(requires, provides)
        contract = Contract(
            component=name.group(),
            requires=frozenset(tok.group() for tok in requires),
            provides=frozenset(tok.group() for tok in provides),
            threads=tuple(threads),
            timings=tuple(timings),
            control_flow=tuple(control_flow),
        )
        _validate_contract(contract)
        return contract

    def _check_services(self, requires: list[_Token], provides: list[_Token]) -> None:
        """No service is declared twice on one side, or on both sides."""
        for which, decls in (("requires", requires), ("provides", provides)):
            seen: set[str] = set()
            for tok in decls:
                if tok.group() in seen:
                    raise DslValidationError(f"duplicate {which} declaration for {tok.group()!r}", *self._pos(tok))
                seen.add(tok.group())
        required = {tok.group() for tok in requires}
        for tok in provides:
            if tok.group() in required:
                raise DslValidationError(f"service {tok.group()!r} both required and provided", *self._pos(tok))

    def parse_repository(self) -> dict[str, ServiceInterface]:
        interfaces: dict[str, ServiceInterface] = {}
        while self._at_kw("service"):
            self._next()
            name = self._take_id("service name")
            if name.group() in interfaces:
                raise DslValidationError(f"duplicate service {name.group()!r}", *self._pos(name))
            max_clients: int | None = None
            if self._at_kw("max_clients"):
                self._next()
                max_clients, mtok = self._take_int("client bound")
                if max_clients < 1:
                    raise DslValidationError("max_clients must be at least 1", *self._pos(mtok))
            methods: list[ServiceMethod] = []
            while self._at_kw("method"):
                self._next()
                mname = self._take_id("method name")
                if any(m.name == mname.group() for m in methods):
                    raise DslValidationError(f"duplicate method {mname.group()!r}", *self._pos(mname))
                self._take_punct("(")
                args = self._raw_args()
                methods.append(ServiceMethod(mname.group(), args))
            interfaces[name.group()] = ServiceInterface(name.group(), tuple(methods), max_clients)
        self._expect_eof()
        return interfaces


def _validate_contract(contract: Contract) -> None:
    thread_names: set[str] = set()
    task_names: set[str] = set()
    entries: set[tuple[str, str]] = set()
    for thread in contract.threads:
        if thread.name in thread_names:
            raise DslValidationError(f"duplicate thread {thread.name!r}", *thread.pos)
        thread_names.add(thread.name)
        if isinstance(thread.activation, RpcEntry):
            ref = thread.activation.ref
            if ref.service not in contract.provides:
                raise DslValidationError(
                    f"entry method {ref} names a service the component does not provide", *ref.pos
                )
            if (ref.service, ref.method) in entries:
                raise DslValidationError(f"duplicate entry thread for {ref.service}.{ref.method}", *ref.pos)
            entries.add((ref.service, ref.method))
        for step in thread.steps:
            if isinstance(step, TaskStep):
                if step.name in task_names:
                    raise DslValidationError(f"duplicate task {step.name!r}", *step.pos)
                task_names.add(step.name)
            else:
                if step.ref.service not in contract.requires:
                    raise DslValidationError(
                        f"call {step.ref} names a service the component does not require", *step.ref.pos
                    )

    called = {(s.ref.service, s.ref.method) for t in contract.threads for _, s in t.calls()}
    for req in contract.timings:
        if isinstance(req.target, str):
            if req.target not in thread_names:
                raise DslValidationError(f"timing target {req.target!r} is not a thread of this component", *req.pos)
        else:
            tgt = (req.target.service, req.target.method)
            if req.target.service not in contract.requires | contract.provides:
                raise DslValidationError(
                    f"timing target {req.target} names a service this component neither requires nor provides",
                    *req.pos,
                )
            if tgt not in called:
                raise DslValidationError(
                    f"timing target {req.target} is never called by this component", *req.pos
                )
    for nua in contract.control_flow:
        for ref in (nua.forbidden, nua.prerequisite):
            if ref.service not in contract.requires | contract.provides:
                raise DslValidationError(
                    f"control-flow reference {ref} names a service this component neither requires nor provides",
                    *ref.pos,
                )


def parse_contract(text: str) -> Contract:
    """Parse and validate a single contract."""
    return _Parser(text).parse_contract()


def parse_service_repository(text: str) -> dict[str, ServiceInterface]:
    """Parse the service repository file into interface descriptions."""
    return _Parser(text).parse_repository()


# ---------------------------------------------------------------------------
# Rendering


def render_contract(contract: Contract) -> str:
    """Canonical textual form; re-parsing yields an equal contract."""
    out: list[str] = [f"component {contract.component}"]
    if contract.requires or contract.provides:
        out.append("  services")
        for svc in sorted(contract.requires):
            out.append(f"    requires {svc}")
        for svc in sorted(contract.provides):
            out.append(f"    provides {svc}")
    if contract.threads:
        out.append("  threads")
        for thread in contract.threads:
            out.append(f"    thread {thread.name}")
            out.append(f"      on {thread.activation}")
            for step in thread.steps:
                if isinstance(step, TaskStep):
                    out.append(
                        f"      task {step.name} onto {step.resource_type}"
                        f" wcet={step.wcet} bcet={step.bcet}"
                    )
                else:
                    out.append(f"      {step.kind} {step.ref}")
    if contract.timings:
        out.append("  timings")
        for req in contract.timings:
            out.append(f"    timing {req.bound} {req.target_str()}")
    if contract.control_flow:
        out.append("  control_flow")
        for nua in contract.control_flow:
            out.append(f"    not {nua.forbidden} until {nua.prerequisite}")
    return "\n".join(out) + "\n"


def render_service_repository(interfaces: Mapping[str, ServiceInterface]) -> str:
    out: list[str] = []
    for name in sorted(interfaces):
        iface = interfaces[name]
        out.append(f"service {iface.name}")
        if iface.max_clients is not None:
            out.append(f"  max_clients {iface.max_clients}")
        for meth in iface.methods:
            out.append(f"  method {meth.name} ({meth.args})")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Model assembly


def load_software_model(contract_texts: Iterable[str], repository_text: str) -> SoftwareModel:
    """Parse contracts plus the repository and cross-check every reference.
    A DslError from a contract text carries the text's index in `source`."""
    interfaces = parse_service_repository(repository_text)
    contracts: dict[str, Contract] = {}
    for index, text in enumerate(contract_texts):
        try:
            contract = parse_contract(text)
            if contract.component in contracts:
                raise DslValidationError(f"duplicate component {contract.component!r}")
        except DslError as exc:
            exc.source = index
            raise
        contracts[contract.component] = contract
    for index, contract in enumerate(contracts.values()):
        try:
            check_against_repository(contract, interfaces)
        except DslError as exc:
            exc.source = index
            raise
    return SoftwareModel(contracts, interfaces)


def check_against_repository(contract: Contract, interfaces: Mapping[str, ServiceInterface]) -> None:
    """Raise DslValidationError unless every service the contract names is
    in the repository and every method it references exists there with the
    same signature (a method timing target is one of its calls)."""
    for svc in sorted(contract.requires | contract.provides):
        if svc not in interfaces:
            raise DslValidationError(f"component {contract.component!r} references unknown service {svc!r}")

    # every reference names a required or provided service, known from here on
    def _method(ref: MethodRef) -> ServiceMethod:
        meth = interfaces[ref.service].method(ref.method)
        if meth is None:
            raise DslValidationError(f"service {ref.service!r} has no method {ref.method!r}", *ref.pos)
        return meth

    for thread in contract.threads:
        entry = [thread.activation.ref] if isinstance(thread.activation, RpcEntry) else []
        for ref in entry + [step.ref for _, step in thread.calls()]:
            meth = _method(ref)
            if meth.args != ref.args:
                raise DslValidationError(
                    f"signature mismatch for {ref}: repository declares ({meth.args})", *ref.pos
                )
    for nua in contract.control_flow:
        _method(nua.forbidden)
        _method(nua.prerequisite)
