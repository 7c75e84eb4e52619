"""Batch-lifecycle tracing: traces, spans, and JSON-lines exporters.

One *trace* follows one drained batch across every pipeline seam, all on
the thread that flushes it: ``drain``, ``prepare``/``coalesce``, ``apply``
(the batch's one maintenance pass, recording the counter deltas it
incurred), ``journal`` on durable schedulers, ``commit``, and
``checkpoint`` when the durability policy fires.  Spans carry **monotonic**
timestamps only (``time.monotonic``; ``time.time`` is banned in this package
by ``tools/lint_rules.py``) -- the trace is a timeline, not a calendar, and
wall clocks can step backwards mid-batch.

A finished span is emitted as one JSON-lines event::

    {"type": "span", "trace": "t3", "span": 2, "parent": 1,
     "name": "apply", "start": 8.1231, "end": 8.1310, "thread": "...",
     "attrs": {"solver_calls": 4, ...}}

Root spans (``"parent": null``, name ``"batch"``) additionally carry the
number of spans the trace recorded, so a reader can detect truncated
traces.  Events are append-only and self-contained: the file needs no
header, can be tailed live, and interleaves safely when spans finish out
of order across threads (the exporter serializes writes under a lock).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The one clock spans may use.  Monotonic by contract; injectable for
#: deterministic tests.
monotonic: Callable[[], float] = time.monotonic

_TRACE_IDS = itertools.count(1)


class Span:
    """One timed operation inside a trace.

    Usable as a context manager (an exception marks the span failed and
    re-raises) or finished explicitly via :meth:`finish`.  Attributes set
    after :meth:`finish` are lost -- the span has already been emitted.
    """

    __slots__ = (
        "trace",
        "name",
        "span_id",
        "parent_id",
        "start",
        "end",
        "thread",
        "attrs",
        "status",
        "_finished",
    )

    def __init__(
        self,
        trace: "Trace",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start: float,
    ) -> None:
        self.trace = trace
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.thread = threading.current_thread().name
        self.attrs: Dict[str, object] = {}
        self.status = "ok"
        self._finished = False

    def set(self, **attrs: object) -> "Span":
        """Attach attributes (txn ranges, counter deltas, outcomes)."""
        self.attrs.update(attrs)
        return self

    def fail(self, error: str) -> "Span":
        """Mark the span failed, recording *error* unless one is attached."""
        self.status = "error"
        self.attrs.setdefault("error", error)
        return self

    def finish(self, end: Optional[float] = None) -> None:
        if self._finished:
            return
        self._finished = True
        self.end = monotonic() if end is None else end
        self.trace._record(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.fail(f"{exc_type.__name__}: {exc}")
        self.finish()


class Trace:
    """The span tree of one batch; thread-safe, emitted span by span."""

    def __init__(self, tracer: "Tracer", trace_id: str, name: str, start: float):
        self._tracer = tracer
        self.trace_id = trace_id
        self._lock = threading.Lock()
        self._span_ids = itertools.count(2)
        self._recorded = 0
        self._finished = False
        self.root = Span(self, name, span_id=1, parent_id=None, start=start)

    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        parent: Optional[Span] = None,
        start: Optional[float] = None,
    ) -> Span:
        """Open a child span (of *parent*, or of the root)."""
        with self._lock:
            span_id = next(self._span_ids)
        return Span(
            self,
            name,
            span_id=span_id,
            parent_id=(parent or self.root).span_id,
            start=monotonic() if start is None else start,
        )

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[Span] = None,
        **attrs: object,
    ) -> Span:
        """Record an already-measured interval as a completed span.

        Used where the caller only knows *after the fact* that the interval
        is worth a span (e.g. a checkpoint policy check that actually wrote
        a checkpoint).
        """
        span = self.span(name, parent=parent, start=start)
        span.set(**attrs)
        span.finish(end)
        return span

    def finish(self, end: Optional[float] = None) -> None:
        """End the root span and seal the trace (idempotent)."""
        with self._lock:
            if self._finished:
                return
            self._finished = True
        self.root.set(spans=self._recorded + 1)
        self.root.finish(end)

    # ------------------------------------------------------------------
    def _record(self, span: Span) -> None:
        with self._lock:
            self._recorded += 1
        self._tracer._export(
            {
                "type": "span",
                "trace": self.trace_id,
                "span": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "start": round(span.start, 6),
                "end": round(span.end, 6) if span.end is not None else None,
                "thread": span.thread,
                "status": span.status,
                "attrs": span.attrs,
            }
        )


class _NullSpan:
    """A span of :data:`NULL_TRACE`: accepts everything, keeps nothing."""

    __slots__ = ()

    def set(self, **attrs: object) -> "_NullSpan":
        return self

    def fail(self, error: str) -> "_NullSpan":
        return self

    def finish(self, end: Optional[float] = None) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


class _NullTrace:
    """The trace of a batch nobody traces: every span is the one no-op span,
    so instrumented code never asks whether tracing is on (what
    :data:`~repro.obs.metrics.NULL_METRICS` is to the registry)."""

    __slots__ = ()
    trace_id = "-"
    root = _NullSpan()

    def span(self, name, parent=None, start=None) -> _NullSpan:
        return self.root

    def record_span(self, name, start, end, parent=None, **attrs) -> _NullSpan:
        return self.root

    def finish(self, end=None) -> None:
        pass


#: What ``Observability.start_trace`` returns when tracing is off.
NULL_TRACE = _NullTrace()


class JsonLinesExporter:
    """Append trace events to a JSON-lines file (one event per line)."""

    def __init__(self, path) -> None:
        self._path = str(path)
        self._lock = threading.Lock()
        self._handle = open(self._path, "a", encoding="utf-8")
        self.events_written = 0

    @property
    def path(self) -> str:
        return self._path

    def export(self, event: dict) -> None:
        line = json.dumps(event, sort_keys=True, default=str)
        with self._lock:
            if self._handle.closed:
                return
            self._handle.write(line + "\n")
            self._handle.flush()
            self.events_written += 1

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


class RingExporter:
    """Keep the most recent trace events in memory (bounded deque).

    Backs the server's ``trace`` operation: operators can ask a live
    service for its recent batch timelines without any file plumbing.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=max(1, capacity))
        self.events_seen = 0

    def export(self, event: dict) -> None:
        with self._lock:
            self._events.append(event)
            self.events_seen += 1

    def events(self) -> Tuple[dict, ...]:
        with self._lock:
            return tuple(self._events)

    def traces(self, limit: Optional[int] = None) -> List[dict]:
        """The most recent complete traces, oldest first, as summary dicts.

        A trace is *complete* once its root span ("batch", parent null) has
        been emitted; spans evicted from the ring leave a partial trace,
        which is reported with ``"truncated": true``.  *limit* keeps the
        newest *limit* traces (``0``: none); a negative one is a
        ``ValueError``.
        """
        if limit is not None and limit < 0:
            raise ValueError(f"limit must not be negative, got {limit}")
        by_trace: Dict[str, List[dict]] = {}
        order: List[str] = []
        for event in self.events():
            trace_id = event.get("trace")
            if trace_id not in by_trace:
                by_trace[trace_id] = []
                order.append(trace_id)
            by_trace[trace_id].append(event)
        summaries = []
        for trace_id in order:
            events = by_trace[trace_id]
            root = next((e for e in events if e.get("parent") is None), None)
            if root is None:
                continue  # still in flight (or root evicted)
            expected = root.get("attrs", {}).get("spans")
            summaries.append(
                {
                    "trace": trace_id,
                    "name": root.get("name"),
                    "seconds": round(
                        (root.get("end") or 0) - (root.get("start") or 0), 6
                    ),
                    "status": root.get("status"),
                    "attrs": root.get("attrs", {}),
                    "truncated": (
                        expected is not None and len(events) < expected
                    ),
                    "spans": sorted(
                        events, key=lambda e: (e.get("start") or 0, e.get("span"))
                    ),
                }
            )
        if limit is not None:
            summaries = summaries[max(0, len(summaries) - limit):]
        return summaries


class Tracer:
    """Creates traces and fans finished spans out to the exporters."""

    def __init__(self, exporters: Sequence[object] = ()) -> None:
        self._exporters = tuple(exporters)

    def start_trace(
        self, name: str = "batch", start: Optional[float] = None
    ) -> Trace:
        trace_id = f"t{next(_TRACE_IDS)}"
        return Trace(
            self, trace_id, name, monotonic() if start is None else start
        )

    def _export(self, event: dict) -> None:
        for exporter in self._exporters:
            exporter.export(event)
