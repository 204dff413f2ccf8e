"""In-memory span tracer that wraps the package's functions from outside.

Each wrapper replaces one attribute at the place its caller looks it up
(``snpgibbs.cli.run_chain``, not ``snpgibbs.gibbs.run_chain``, because the
CLI imported the name), records a span around the call and restores the
original when the tracer is uninstalled. No source file of the package is
changed. Spans carry wall time (``perf_counter``) and the calling thread's
CPU time (``thread_time``); the two chains of a multi-chain run execute on
different threads, so each thread keeps its own span stack and CPU time
excludes the time a thread waits for the interpreter lock.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    t0: float = 0.0
    t1: float = 0.0
    c0: float = 0.0
    c1: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def cpu(self) -> float:
        return self.c1 - self.c0


class Tracer:
    """Collects spans, counters and objects from the functions it wraps."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.objects: dict[str, list] = defaultdict(list)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, stack[-1].id if stack else None,
                    threading.get_ident())
        stack.append(span)
        span.c0 = time.thread_time()
        span.t0 = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        span.c1 = time.thread_time()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a block."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += amount

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name, describe=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a span name or a function of the call's arguments that
        returns one; ``describe(args, kwargs, result)`` returns attributes
        stored on the span after the call, outside its timed interval.
        """
        raw = vars(owner)[attr]
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span)
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
            return result

        if isinstance(raw, classmethod):
            wrapper = classmethod(wrapper)
        self._patch(owner, attr, raw, wrapper)

    def tally(self, owner, attr: str, key: str, amount) -> None:
        """Count ``amount(args, kwargs)`` per call of ``owner.attr``, without a span."""
        raw = vars(owner)[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count(key, amount(args, kwargs))
            return raw(*args, **kwargs)

        self._patch(owner, attr, raw, wrapper)

    def _patch(self, owner, attr, raw, replacement) -> None:
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> CPU time not covered by the span's child spans."""
        child_cpu: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_cpu[s.parent] += s.cpu
        return {s.id: s.cpu - child_cpu[s.id] for s in self.spans}

    def clear(self) -> None:
        self.spans = []
        self.counters.clear()
        self.objects.clear()
