"""Spans recorded from outside the program, by wrapping its public calls.

A :class:`SpanRecorder` replaces chosen functions and methods with wrappers
that record ``(name, start, end, id, parent, request)`` in memory while the
recorder is enabled.  The parent and the request id ride contextvars, so
they follow a request across ``await`` and into the frontend's worker
thread, which runs each batch in a copy of the submitting context.  Nothing
inside the program changes; :meth:`SpanRecorder.restore` puts every
original back.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import statistics
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_CURRENT = contextvars.ContextVar("scalebench_span", default=None)
REQUEST = contextvars.ContextVar("scalebench_request", default=None)
#: Spans kept in memory; later ones are counted as dropped.
MAX_SPANS = 500_000


class Span:
    __slots__ = ("name", "start", "end", "id", "parent", "request", "info")

    def __init__(self, name, start, end, span_id, parent, request, info):
        self.name = name
        self.start = start
        self.end = end
        self.id = span_id
        self.parent = parent
        self.request = request
        self.info = info

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "id": self.id, "parent": self.parent,
                "request": self.request, "info": self.info}


class SpanRecorder:
    """Wraps calls into the program and keeps their spans in memory."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self.dropped = 0
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object, bool]] = []

    def _keep(self, span: Span) -> None:
        # list.append is atomic under the GIL; the wrappers run on the event
        # loop, the frontend worker and the remote fan-out pool at once.
        if len(self.spans) < MAX_SPANS:
            self.spans.append(span)
        else:
            self.dropped += 1

    def wrap(self, owner, attribute: str, name: str,
             info: Optional[Callable] = None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``info(args, kwargs, result)`` may return a small dict stored with
        the span (batch sizes, byte counts).
        """
        function = getattr(owner, attribute)
        if isinstance(inspect.getattr_static(owner, attribute),
                      (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {name}: static/class method")
        recorder = self

        def finish(span_id, parent, start, args, kwargs, result):
            end = time.perf_counter()
            details = info(args, kwargs, result) if info is not None else None
            recorder._keep(Span(name, start, end, span_id, parent,
                                REQUEST.get(), details))

        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def wrapper(*args, **kwargs):
                if not recorder.enabled:
                    return await function(*args, **kwargs)
                span_id, parent = next(recorder._ids), _CURRENT.get()
                token = _CURRENT.set(span_id)
                start = time.perf_counter()
                result = None
                try:
                    result = await function(*args, **kwargs)
                    return result
                finally:
                    _CURRENT.reset(token)
                    finish(span_id, parent, start, args, kwargs, result)
        else:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                if not recorder.enabled:
                    return function(*args, **kwargs)
                span_id, parent = next(recorder._ids), _CURRENT.get()
                token = _CURRENT.set(span_id)
                start = time.perf_counter()
                result = None
                try:
                    result = function(*args, **kwargs)
                    return result
                finally:
                    _CURRENT.reset(token)
                    finish(span_id, parent, start, args, kwargs, result)

        self.patch(owner, attribute, wrapper)

    def patch(self, owner, attribute: str, value) -> None:
        """Set ``owner.attribute`` to ``value`` until :meth:`restore`."""
        original = inspect.getattr_static(owner, attribute)
        # An inherited attribute (or a method patched on one instance) is
        # deleted again on restore rather than pinned onto the owner.
        own = attribute in vars(owner)
        self._patches.append((owner, attribute, original, own))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        """Put every wrapped original back (last wrapped, first restored)."""
        while self._patches:
            owner, attribute, original, own = self._patches.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def write(self, path) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict(), default=_plain) + "\n")


def _plain(value):
    """JSON form of numpy values kept in span info."""
    return value.tolist() if hasattr(value, "tolist") else str(value)


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to their parent's interval; where two children
    overlap (a parent awaiting concurrent work), the covered time counts
    once.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ()))
        result[span.id] = span.duration - covered
    return result


def self_time_summary(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total and median self time in ms."""
    own = self_times(spans)
    grouped: Dict[str, List[float]] = {}
    for span in spans:
        grouped.setdefault(span.name, []).append(own[span.id] * 1e3)
    return {name: {"calls": len(values),
                   "self_total_ms": sum(values),
                   "self_p50_ms": statistics.median(values)}
            for name, values in sorted(grouped.items())}
