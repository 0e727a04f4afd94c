"""Per-query trace spans with monotonic timings.

A trace is identified by a query id; every span carries that id, its
own span id, and its parent's span id, so a whole request —
pool admission → plan → execution → per-shard fragments → WAL
appends — reconstructs into one tree.

Design constraints, in order:

1. **Tracing off ⇒ zero work.**  ``TRACER.enabled`` is a plain bool;
   hot paths check it before building spans, and ``span()`` itself
   short-circuits to a shared no-op span.
2. **Tracing on changes only counters.**  Spans observe, never steer:
   nothing in the engine may branch on a span's contents.
3. **Cross-thread parenting is explicit.**  Thread-locals do not follow
   work onto another thread, so code that hands work over captures
   ``TRACER.current()`` and passes it as ``parent=`` on the far side.

This module must not import anything from ``repro.engine`` — engine
modules import it.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "TRACER", "clip"]


def clip(sql: str, limit: int = 200) -> str:
    """Whitespace-collapse and truncate SQL for span/log attributes."""
    sql = " ".join(sql.split())
    return sql if len(sql) <= limit else sql[:limit - 1] + "…"


class Span:
    """One timed step of a query, linked to its parent by span id."""

    __slots__ = ("name", "query_id", "span_id", "parent_id",
                 "started", "ended", "attributes")

    def __init__(self, name: str, query_id: int, span_id: int,
                 parent_id: Optional[int], started: float) -> None:
        self.name = name
        self.query_id = query_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.started = started
        self.ended = started
        self.attributes: Dict[str, object] = {}

    @property
    def duration_seconds(self) -> float:
        return max(0.0, self.ended - self.started)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, query={self.query_id}, "
                f"span={self.span_id}, parent={self.parent_id}, "
                f"{self.duration_seconds * 1000.0:.3f}ms)")


class _NoopSpan:
    """Shared placeholder yielded while tracing is disabled.

    It exposes one throwaway ``attributes`` dict; nothing reads it, and
    writes to it are dead stores by design.
    """

    __slots__ = ()
    attributes: Dict[str, object] = {}

    @property
    def duration_seconds(self) -> float:
        return 0.0


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects spans per query id into a bounded in-memory store."""

    def __init__(self, capacity: int = 128) -> None:
        self.enabled = False
        self.capacity = capacity
        self._lock = threading.Lock()
        self._local = threading.local()
        self._traces: "OrderedDict[int, List[Span]]" = OrderedDict()
        self._system: deque = deque(maxlen=256)
        self._next_query = itertools.count(1)
        self._next_span = itertools.count(1)
        self.spans_recorded = 0
        self.traces_evicted = 0

    # -- ids and the per-thread span stack --------------------------------

    def new_query_id(self) -> int:
        return next(self._next_query)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, *, query_id: Optional[int] = None,
             parent: Optional[Span] = None,
             started: Optional[float] = None,
             **attributes: object) -> Iterator[Span]:
        """Open a span around a block; times it with ``perf_counter``.

        ``parent`` overrides the thread-local parent (for work handed to
        another thread); ``started`` backdates the span (for waits that
        ended before the span could be opened, e.g. queue time measured
        from a ticket's ``submitted_at``).
        """
        if not self.enabled:
            yield _NOOP_SPAN  # type: ignore[misc]
            return
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if query_id is None:
            query_id = parent.query_id if parent is not None \
                else self.new_query_id()
        span = Span(name, query_id, next(self._next_span),
                    parent.span_id if parent is not None else None,
                    started if started is not None else time.perf_counter())
        if attributes:
            span.attributes.update(attributes)
        stack.append(span)
        try:
            yield span
        finally:
            span.ended = time.perf_counter()
            stack.pop()
            self._store(span)

    def record(self, name: str, *, started: float, ended: float,
               query_id: Optional[int] = None,
               parent: Optional[Span] = None,
               **attributes: object) -> Optional[Span]:
        """Record an already-finished interval as a span (retroactive)."""
        if not self.enabled:
            return None
        if parent is None:
            parent = self.current()
        if query_id is None:
            query_id = parent.query_id if parent is not None \
                else self.new_query_id()
        span = Span(name, query_id, next(self._next_span),
                    parent.span_id if parent is not None else None, started)
        span.ended = ended
        if attributes:
            span.attributes.update(attributes)
        self._store(span)
        return span

    def _store(self, span: Span) -> None:
        with self._lock:
            self.spans_recorded += 1
            spans = self._traces.get(span.query_id)
            if spans is None:
                spans = self._traces[span.query_id] = []
                while len(self._traces) > self.capacity:
                    self._traces.popitem(last=False)
                    self.traces_evicted += 1
            spans.append(span)

    # -- reading back ------------------------------------------------------

    def trace(self, query_id: int) -> List[Span]:
        """All spans of one query, ordered by start time."""
        with self._lock:
            spans = list(self._traces.get(query_id, ()))
        return sorted(spans, key=lambda s: (s.started, s.span_id))

    def query_ids(self) -> List[int]:
        with self._lock:
            return list(self._traces.keys())

    def last_trace(self) -> List[Span]:
        with self._lock:
            if not self._traces:
                return []
            query_id = next(reversed(self._traces))
        return self.trace(query_id)

    def statistics(self) -> Dict[str, object]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "traces": len(self._traces),
                "spans_recorded": self.spans_recorded,
                "traces_evicted": self.traces_evicted,
            }

    def reset(self) -> None:
        with self._lock:
            self._traces.clear()
            self._system.clear()
            self.spans_recorded = 0
            self.traces_evicted = 0


def render_trace(spans: List[Span]) -> str:
    """An indented one-line-per-span rendering of a trace."""
    by_parent: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        by_parent.setdefault(span.parent_id, []).append(span)
    known = {span.span_id for span in spans}
    lines: List[str] = []

    def walk(parent_id: Optional[int], depth: int) -> None:
        for span in sorted(by_parent.get(parent_id, ()),
                           key=lambda s: (s.started, s.span_id)):
            attrs = " ".join(f"{key}={value}" for key, value in
                             sorted(span.attributes.items()))
            suffix = f"  [{attrs}]" if attrs else ""
            lines.append(f"{'  ' * depth}{span.name} "
                         f"{span.duration_seconds * 1000.0:.3f}ms{suffix}")
            walk(span.span_id, depth + 1)

    roots = sorted(key for key in by_parent
                   if key is None or key not in known)
    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


#: Process-wide tracer; ``Telemetry`` flips ``enabled`` from config.
TRACER = Tracer()
