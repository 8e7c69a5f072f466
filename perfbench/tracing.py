"""Outside-in tracing: timing wrappers around the program's public entry points.

Nothing here touches ``src/``.  A :class:`Recorder` keeps spans in memory;
:class:`Patcher` substitutes wrappers for a layer's public functions (in
every loaded ``repro`` module that imported them, and in module-level
registries such as ``repro.core.api._PARTITIONERS``) and for public
methods on their classes, then restores the originals.  Each wrapper
records one :class:`Span` — name, start, end, parent span, request id —
and may attach counts read from the call's arguments or return value.

Spans nest per thread: a span opened while another is open on the same
thread is its child and inherits its request id.  A layer's self time is
its duration minus the part of it that its children cover.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time
from collections.abc import Callable

__all__ = ["Patcher", "Recorder", "Span", "covered_seconds", "self_times", "union_length"]


@dataclasses.dataclass
class Span:
    """One timed call into a layer."""

    name: str
    start: float
    end: float
    parent: int | None
    rid: str | None
    counts: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span log; a span is appended when it opens and closed in place."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, rid=None, before=None, counter=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``before(args, kwargs)`` runs before the span opens and
        ``counter(args, kwargs, result, counts, state)`` after it closes
        (``state`` is what ``before`` returned), so reading counts never
        lands in the measured duration.
        """
        state = before(args, kwargs) if before is not None else None
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = self.spans[parent].rid
        span = Span(name, self.clock(), 0.0, parent, rid)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            stack.pop()
        if counter is not None:
            counter(args, kwargs, result, span.counts, state)
        return result


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(index, ())
            if end > span.start and start < span.end
        ]
        result.append(span.duration - union_length(clipped))
    return result


def covered_seconds(spans: list[Span], start: float, end: float) -> float:
    """Seconds of ``[start, end]`` covered by at least one span."""
    return union_length(
        (max(span.start, start), min(span.end, end))
        for span in spans
        if span.end > start and span.start < end
    )


def _resolve(hooks: dict, args, kwargs) -> dict:
    """Turn the ``rid`` hook (a function of the call) into its value."""
    rid = hooks.get("rid")
    if rid is None:
        return hooks
    return {**hooks, "rid": rid(args, kwargs)}


class Patcher:
    """Installs timing wrappers and restores the originals on :meth:`restore`.

    Hooks: ``rid(args, kwargs)`` names the request, ``before`` and
    ``counter`` read counts (see :meth:`Recorder.call`).  A module first
    imported while a wrapper is installed binds the wrapper and keeps it
    after :meth:`restore`; traced passes restore only as their process ends.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[Callable[[], None]] = []

    def function(self, module, attr: str, name: str, **hooks) -> None:
        """Wrap ``module.attr`` everywhere a loaded ``repro`` module holds it."""
        original = getattr(module, attr)
        recorder = self.recorder

        def wrapper(*args, **kwargs):
            return recorder.call(name, original, args, kwargs, **_resolve(hooks, args, kwargs))

        wrapper.__wrapped__ = original
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            namespace = vars(loaded)
            for key, value in list(namespace.items()):
                if value is original:
                    self._set(namespace, key, wrapper, original)
                elif isinstance(value, dict):
                    for entry, member in list(value.items()):
                        if member is original:
                            self._set(value, entry, wrapper, original)

    def method(self, cls, attr: str, name: str, **hooks) -> None:
        """Wrap ``cls.attr`` (a plain method) for every instance."""
        original = cls.__dict__[attr]
        recorder = self.recorder

        def wrapper(*args, **kwargs):
            return recorder.call(name, original, args, kwargs, **_resolve(hooks, args, kwargs))

        wrapper.__wrapped__ = original
        setattr(cls, attr, wrapper)
        self._undo.append(lambda: setattr(cls, attr, original))

    def _set(self, mapping: dict, key, wrapper, original) -> None:
        mapping[key] = wrapper
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()
