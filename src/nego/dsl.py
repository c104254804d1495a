"""Contract language: parsing, validation, and canonical rendering.

The language is keyword-led and whitespace-separated; indentation and line
breaks carry no meaning.  A contract describes one component: the services
it requires and provides, its threads (one activation clause plus a sequence
of task and call steps), latency requirements, and not-until ordering
requirements.  A separate repository file declares service interfaces
(method signatures, optional client bounds).

Each text is scanned once: one regular-expression split cuts it into
tokens and the blanks between them, and the parser walks that list with an
index, checking each token by its text.  Errors give the line and column of
the token at fault: only a line feed starts a line, and a tab or a carriage
return is one column.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Iterator, Mapping, NamedTuple, NoReturn

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
# Parser


# One scan cuts a text into tokens and the blanks between them: the split
# list alternates blanks (even indices, maybe empty) and tokens (odd ones).  A
# run of characters that start no token is one bad token, so every
# parenthesis is a token of its own.  ASCII classes only: any other
# character, blank or digit is unexpected.
_SCAN = re.compile(r"(?a)([A-Za-z_]\w*|[().=]|\d+|[^ \t\r\n\w().=]+)")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_DIGITS = frozenset("0123456789")
_TOKEN_START = _NAME_START | _DIGITS | frozenset("().=")
_NEWLINE = re.compile("\n")
# The most digits an integer may have, here and in a configuration's ranks.
# 640 is the lowest limit CPython lets anyone set on int() from text, so every
# interpreter converts what passes.
MAX_DIGITS = 640
_EMPTY_ARGS = "argument list must be empty here"


class _Parser:
    """A text scanned once.  `_parts` is its split list with "" appended:
    token i, for an odd i, is `_parts[i]`, and "" is the end of input.  The
    grammar walks the odd indices with a local cursor; a method that reads a
    piece of grammar takes the index it starts at and returns, with what it
    read, the index after it.  A keyword or a punctuation mark is checked by
    comparing the token's text in place, a name or an integer by `_name` or
    `_int`; a failed check raises through `_fail`."""

    def __init__(self, text: str):
        self._text = text
        self._parts = _SCAN.split(text)
        self._parts.append("")
        self._ends = list(accumulate(map(len, self._parts)))  # the offset after each part
        self._line_starts = [0, *(m.end() for m in _NEWLINE.finditer(text))]

    def _pos(self, i: int) -> tuple[int, int]:
        """Line and column of token i; only a line feed starts a line."""
        offset = self._ends[i - 1]
        line = bisect_right(self._line_starts, offset)
        return line, offset - self._line_starts[line - 1] + 1

    def _fail(self, i: int, expected: str | None) -> NoReturn:
        """Raise for token i, which is not `expected`, or not the end of
        input if `expected` is None."""
        tok = self._parts[i]
        if tok and tok[0] not in _TOKEN_START:
            message = f"unexpected character {tok[0]!r}"
        elif expected is None:
            message = f"unexpected token {tok!r}"
        else:
            message = f"expected {expected}, found {tok or 'end of input'!r}"
        raise DslSyntaxError(message, *self._pos(i))

    def _name(self, i: int, what: str) -> str:
        """The name at token i: an identifier that is not a keyword."""
        name = self._parts[i]
        if name in KEYWORDS:
            raise DslSyntaxError(f"expected {what}, found keyword {name!r}", *self._pos(i))
        if name[:1] not in _NAME_START:
            self._fail(i, what)
        return name

    def _int(self, i: int, what: str) -> int:
        """The integer at token i."""
        digits = self._parts[i]
        if digits[:1] not in _DIGITS:
            self._fail(i, what)
        if len(digits) > MAX_DIGITS:
            raise DslValidationError(f"{what} has {len(digits)} digits, more than {MAX_DIGITS}", *self._pos(i))
        return int(digits)

    def _key_int(self, i: int, key: str) -> int:
        """`key=<int>` at token i; the integer is token i + 4."""
        if self._parts[i] != key:
            self._fail(i, repr(key))
        if self._parts[i + 2] != "=":
            self._fail(i + 2, "'='")
        return self._int(i + 4, f"{key} value")

    def _args(self, i: int) -> tuple[str, int]:
        """The opaque text between the '(' at token i and its matching ')',
        stripped, and the index after that ')'; no token between is checked."""
        parts = self._parts
        close, depth = i, 1
        try:
            while depth:  # each pass moves to the next ')' and counts the '(' on the way
                start, close = close + 1, parts.index(")", close + 1)
                depth += parts[start:close].count("(") - 1
        except ValueError:
            raise DslSyntaxError("unterminated argument list", *self._pos(len(parts) - 1)) from None
        return self._text[self._ends[i] : self._ends[close - 1]].strip(), close + 2

    def _ref(self, i: int, args_refused: str | None = None) -> tuple[MethodRef, int]:
        """`service.method(args)` at token i; a non-empty argument list is
        refused with the message `args_refused`, if one is given."""
        parts = self._parts
        service = self._name(i, "service name")
        if parts[i + 2] != ".":
            self._fail(i + 2, "'.'")
        method = self._name(i + 4, "method name")
        if parts[i + 6] != "(":
            self._fail(i + 6, "'('")
        args, after = self._args(i + 6)
        if args and args_refused:
            raise DslSyntaxError(args_refused, *self._pos(i))
        return MethodRef(service, method, args, pos=self._pos(i)), after

    def _thread(self, i: int) -> tuple[Thread, int]:
        """A thread at token i, which reads 'thread'."""
        parts, fail, pos = self._parts, self._fail, self._pos
        name = self._name(i + 2, "thread name")
        if parts[i + 4] != "on":
            fail(i + 4, "'on'")
        word, j = parts[i + 6], i + 8
        if word == "RPC":
            ref, j = self._ref(j)
            activation: Activation = RpcEntry(ref)
        elif word == "initialization":
            activation = Initialization()
        elif word == "time":
            if parts[j] != "(":
                fail(j, "'('")
            period = self._key_int(j + 2, "period")
            jitter = self._key_int(j + 8, "jitter")
            if parts[j + 14] != ")":
                fail(j + 14, "')'")
            if period <= 0:
                raise DslValidationError("period must be positive", *pos(j + 6))
            if jitter >= period:
                raise DslValidationError("jitter must be smaller than the period", *pos(j + 12))
            activation, j = TimeActivation(period, jitter), j + 16
        else:
            fail(i + 6, "RPC, initialization, or time")
        steps: list[Step] = []
        while True:
            word = parts[j]
            if word == "task":
                task = self._name(j + 2, "task name")
                if parts[j + 4] != "onto":
                    fail(j + 4, "'onto'")
                rtype = self._name(j + 6, "resource type")
                wcet = self._key_int(j + 8, "wcet")
                bcet = self._key_int(j + 14, "bcet")
                if wcet <= 0:
                    raise DslValidationError("wcet must be positive", *pos(j + 12))
                if bcet <= 0:
                    raise DslValidationError("bcet must be positive", *pos(j + 18))
                if bcet > wcet:
                    raise DslValidationError(f"bcet {bcet} exceeds wcet {wcet}", *pos(j + 18))
                steps.append(TaskStep(task, rtype, wcet, bcet, pos=pos(j + 2)))
                j += 20
            elif word == "RPC" or word == "SIGNAL":
                ref, j = self._ref(j + 2)
                steps.append(CallStep(word, ref))
            else:
                return Thread(name, activation, tuple(steps), pos=pos(i + 2)), j

    def parse_contract(self) -> Contract:
        parts, fail, pos = self._parts, self._fail, self._pos
        if parts[1] != "component":
            fail(1, "'component'")
        component = self._name(3, "component name")
        i = 5
        declared: dict[str, list[int]] = {"requires": [], "provides": []}  # token indices
        if parts[i] == "services":
            i += 2
            while parts[i] in declared:
                self._name(i + 2, "service name")
                declared[parts[i]].append(i + 2)
                i += 4
        threads: list[Thread] = []
        if parts[i] == "threads":
            i += 2
            while parts[i] == "thread":
                thread, i = self._thread(i)
                threads.append(thread)
        timings: list[TimingReq] = []
        if parts[i] == "timings":
            i += 2
            while parts[i] == "timing":
                bound = self._int(i + 2, "latency bound")
                if bound <= 0:
                    raise DslValidationError("latency bound must be positive", *pos(i + 2))
                target: str | MethodRef = self._name(i + 4, "timing target")
                if parts[i + 6] == ".":
                    target, j = self._ref(i + 4, "timing targets take no arguments")
                else:
                    j = i + 6
                timings.append(TimingReq(bound, target, pos=pos(i + 2)))
                i = j
        control_flow: list[NotUntilReq] = []
        if parts[i] == "control_flow":
            i += 2
            while parts[i] == "not":
                forbidden, j = self._ref(i + 2, _EMPTY_ARGS)
                if parts[j] != "until":
                    fail(j, "'until'")
                prerequisite, j = self._ref(j + 2, _EMPTY_ARGS)
                control_flow.append(NotUntilReq(forbidden, prerequisite, pos=pos(i)))
                i = j
        if parts[i]:
            fail(i, None)
        self._check_services(declared)
        contract = Contract(
            component=component,
            requires=frozenset(parts[k] for k in declared["requires"]),
            provides=frozenset(parts[k] for k in declared["provides"]),
            threads=tuple(threads),
            timings=tuple(timings),
            control_flow=tuple(control_flow),
        )
        _validate_contract(contract)
        return contract

    def _check_services(self, declared: dict[str, list[int]]) -> None:
        """No service is declared twice on one side, or on both sides."""
        parts = self._parts
        for which, decls in declared.items():
            seen: set[str] = set()
            for k in decls:
                if parts[k] in seen:
                    raise DslValidationError(f"duplicate {which} declaration for {parts[k]!r}", *self._pos(k))
                seen.add(parts[k])
        required = {parts[k] for k in declared["requires"]}
        for k in declared["provides"]:
            if parts[k] in required:
                raise DslValidationError(f"service {parts[k]!r} both required and provided", *self._pos(k))

    def parse_repository(self) -> dict[str, ServiceInterface]:
        parts, fail, pos, i = self._parts, self._fail, self._pos, 1
        interfaces: dict[str, ServiceInterface] = {}
        while parts[i] == "service":
            name = self._name(i + 2, "service name")
            if name in interfaces:
                raise DslValidationError(f"duplicate service {name!r}", *pos(i + 2))
            i += 4
            max_clients: int | None = None
            if parts[i] == "max_clients":
                max_clients = self._int(i + 2, "client bound")
                if max_clients < 1:
                    raise DslValidationError("max_clients must be at least 1", *pos(i + 2))
                i += 4
            methods: list[ServiceMethod] = []
            while parts[i] == "method":
                method = self._name(i + 2, "method name")
                if any(m.name == method for m in methods):
                    raise DslValidationError(f"duplicate method {method!r}", *pos(i + 2))
                if parts[i + 4] != "(":
                    fail(i + 4, "'('")
                args, i = self._args(i + 4)
                methods.append(ServiceMethod(method, args))
            interfaces[name] = ServiceInterface(name, tuple(methods), max_clients)
        if parts[i]:
            fail(i, None)
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
