"""Benchmark-side tracing: spans recorded around the program's public entry points.

Nothing under ``src/`` is instrumented for the benchmark.  Instead a
:class:`Tracer` replaces selected public functions and methods with wrappers
that record one :class:`Span` per call (name, start, end, span id, parent id,
thread) and return exactly what the wrapped callable returned.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    """One timed call.  ``parent`` is the enclosing span on the same thread."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered_length(children.get(span.id, []), span.start, span.end)
        for span in spans
    }


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Calls and summed self time per span name."""
    own = self_times(spans)
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for span in spans:
        entry = totals[span.name]
        entry.calls += 1
        entry.self_s += own[span.id]
    return dict(totals)


Describe = Callable[[tuple, dict, object], dict]


class Tracer:
    """Records spans from wrapped entry points; :meth:`uninstall` restores them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[Callable[[], None]] = []
        self.recording = True

    def new_id(self) -> int:
        return next(self._ids)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, describe: Describe | None = None) -> Callable:
        """A callable that runs ``fn`` inside a span named ``name``.

        ``describe(args, kwargs, result)`` adds attributes (sizes, keys) to
        the span after the call returns; it must not modify anything.  Keys
        starting with ``_`` stay in memory and are left out of the trace file.
        """
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            result = returned = None
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                attrs = describe(args, kwargs, result) if describe and returned else {}
                self.spans.append(
                    Span(span_id, parent, name, start, end, threading.get_ident(), attrs)
                )

        return traced

    def patch_method(self, cls: type, attr: str, name: str, describe: Describe | None = None):
        """Wrap ``cls.attr`` (defined on ``cls`` itself) until :meth:`uninstall`."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, describe))
        self._restore.append(lambda: setattr(cls, attr, original))

    def patch_function(self, module, attr: str, name: str, describe: Describe | None = None):
        """Wrap a module-level function everywhere it was imported by name."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, describe)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if namespace is not None and namespace.get(attr) is original:
                setattr(mod, attr, wrapped)
                self._restore.append(lambda mod=mod: setattr(mod, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    @contextlib.contextmanager
    def paused(self):
        """Run a block (e.g. a correctness reference) without recording spans."""
        previous = self.recording
        self.recording = False
        try:
            yield
        finally:
            self.recording = previous


@contextlib.contextmanager
def paused(tracer: Tracer | None):
    """:meth:`Tracer.paused` that also accepts ``None`` (an untraced run)."""
    if tracer is None:
        yield
    else:
        with tracer.paused():
            yield


def write_trace(path: str, spans: list[Span], meta: dict) -> None:
    """Write ``meta`` and every span, one JSON object per line."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"meta": meta}) + "\n")
        for span in spans:
            record = {
                "id": span.id,
                "parent": span.parent,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "thread": span.thread,
            }
            record.update((k, v) for k, v in span.attrs.items() if not k.startswith("_"))
            handle.write(json.dumps(record) + "\n")
