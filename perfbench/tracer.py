"""In-memory spans and counters around functions of already-imported modules.

A wrapper replaces a function in every module namespace that holds the
same object, so a name bound with ``from module import name`` is traced
as well as the attribute of the defining module.  Methods are replaced on
their class.  ``restore`` puts every original object back.

Spans are kept as lists ``[id, name, module, start_ns, end_ns, parent, op]``
and only recorded while ``enabled`` is true, so a wrapped library call made
outside a timed operation (an oracle check, a digest) leaves no trace.
"""

from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = None  # id of the operation being timed
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def add_span(self, name: str, module: str, start_ns: int, end_ns: int) -> int:
        """Record a top-level span measured outside a wrapper; returns its id."""
        sid = len(self.spans)
        self.spans.append([sid, name, module, start_ns, end_ns, None, self.op])
        return sid

    def enclosing(self, names) -> str | None:
        """Name of the innermost open span whose name is in ``names``."""
        for sid in reversed(self.stack):
            name = self.spans[sid][1]
            if name in names:
                return name
        return None

    def span_wrapper(self, fn, name: str, module: str, after=None):
        """``fn`` inside a span; ``after(tracer, args, kwargs, result)`` adds counts."""
        tracer, spans, stack, clock = self, self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = len(spans)
            rec = [sid, name, module, clock(), 0, stack[-1] if stack else None, tracer.op]
            spans.append(rec)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = clock()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, fn, counter: str):
        """``fn`` with a call counter and no span, for per-point helpers."""
        tracer, counters = self, self.counters

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                counters[counter] = counters.get(counter, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing --------------------------------------------------------

    def patch_function(self, original, wrapper, namespaces) -> None:
        """Replace ``original`` by ``wrapper`` wherever a namespace binds it."""
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)
                    self._patches.append((ns, attr, original))

    def patch_attr(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per span: its duration minus the durations of its child spans."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[5] is not None:
                child[s[5]] += s[4] - s[3]
        return [s[4] - s[3] - child[i] for i, s in enumerate(self.spans)]

    def merge(self, path: str, parent: int) -> None:
        """Append the spans and counters another process wrote with ``dump``."""
        with open(path) as fh:
            data = json.load(fh)
        base = len(self.spans)
        for sid, name, module, start, end, par, _ in data["spans"]:
            self.spans.append(
                [base + sid, name, module, start, end, parent if par is None else base + par, self.op]
            )
        for name, n in data["counters"].items():
            self.count(name, n)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)
