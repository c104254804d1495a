"""In-memory span recorder that wraps `nego` functions from the outside.

A wrapper is installed at the attribute the *caller* looks up: `from x
import f` binds a second name, so `nego.negotiation.check_timing` and
`nego.timing.check_timing` are distinct slots.  `restore()` puts every
original back, so untraced measurements never run through a wrapper.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import Callable, TextIO


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, caller, start_ns, end_ns, parent index, op)
        self.counts: Counter[str] = Counter()  # filled by the observers passed to wrap()
        self.op: str = "setup"
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def call(self, name: str, caller: str, fn: Callable, args: tuple = (), kwargs: dict | None = None):
        """fn(*args, **kwargs) inside a span."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, caller, start, end, parent, self.op)

    def wrap(self, owner: object, attr: str, name: str, caller: str = "",
             observe: Callable[[object], None] | None = None) -> None:
        """Replace owner.attr by a wrapper that records a span per call and
        passes each result to `observe`."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            result = self.call(name, caller, original, args, kwargs)
            if observe is not None:
                observe(result)
            return result

        self._installed.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, float]:
        """Per span name (and per name@caller): calls, total_ms and self_ms,
        where self time is the duration minus what direct children cover."""
        child_ns = [0] * len(self.spans)
        for name, caller, start, end, parent, op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, caller, start, end, parent, op) in enumerate(self.spans):
            keys = (name, f"{name}@{caller}") if caller else (name,)
            for key in keys:
                out[f"{key}.calls"] += 1
                out[f"{key}.total_ms"] += (end - start) / 1e6
                out[f"{key}.self_ms"] += (end - start - child_ns[i]) / 1e6
        return dict(out)

    def write(self, out: TextIO) -> None:
        """One JSON array per span: name, caller, start_ns, end_ns, parent, op."""
        for span in self.spans:
            out.write(json.dumps(span) + "\n")
