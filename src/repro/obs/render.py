"""Reading, verifying, and rendering JSON-lines trace files.

The serving pipeline emits one JSON object per finished span (see
``trace.py``); this module is the consumer side: ``repro trace <file>``
renders per-batch waterfalls and the top-k slowest spans, and the test
suite uses :func:`verify_batch_traces` to assert the acceptance criterion
that every applied batch carries a complete drain→commit span tree whose
counter deltas reconcile with the scheduler totals.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

#: Pipeline seams, in batch-lifecycle order; used for waterfall sorting
#: and for the completeness check.
SPAN_ORDER: Tuple[str, ...] = (
    "batch",
    "drain",
    "prepare",
    "coalesce",
    "apply",
    "journal",
    "commit",
    "checkpoint",
)

#: Spans every *committed* (non-empty, successfully drained) batch must
#: have; a batch whose pass raised has no ``commit``.
REQUIRED_SPANS: Tuple[str, ...] = ("prepare", "apply", "commit")

#: The per-span counter attrs that must reconcile with scheduler totals.
COUNTER_ATTRS: Tuple[str, ...] = (
    "solver_calls",
    "derivation_attempts",
    "shard_checkouts",
)


def read_events(path) -> List[dict]:
    """Parse a JSON-lines trace file, skipping blank/corrupt lines."""
    events = []
    with open(str(path), "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if isinstance(event, dict) and event.get("type") == "span":
                events.append(event)
    return events


def group_traces(events: Iterable[dict]) -> "List[TraceView]":
    """Group span events into :class:`TraceView` objects, oldest first."""
    by_trace: Dict[str, List[dict]] = {}
    order: List[str] = []
    for event in events:
        trace_id = event.get("trace")
        if trace_id is None:
            continue
        if trace_id not in by_trace:
            by_trace[trace_id] = []
            order.append(trace_id)
        by_trace[trace_id].append(event)
    return [TraceView(trace_id, by_trace[trace_id]) for trace_id in order]


class TraceView:
    """One reconstructed trace: spans indexed, tree-checked, summarizable."""

    def __init__(self, trace_id: str, spans: List[dict]) -> None:
        self.trace_id = trace_id
        self.spans = sorted(
            spans, key=lambda e: (e.get("start") or 0.0, e.get("span") or 0)
        )
        self.by_id = {e.get("span"): e for e in self.spans}
        self.root = next(
            (e for e in self.spans if e.get("parent") is None), None
        )

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return [e.get("name") for e in self.spans]

    def find(self, name: str) -> List[dict]:
        return [e for e in self.spans if e.get("name") == name]

    def counter_totals(self) -> Dict[str, int]:
        """Sum the counter attrs across the trace's non-root spans.

        Root spans carry the batch *totals* as convenience attrs; counting
        them would double every delta, so reconciliation sums only the
        span that actually incurred the work (the ``apply`` span).
        """
        totals = {attr: 0 for attr in COUNTER_ATTRS}
        for event in self.spans:
            if event.get("parent") is None:
                continue
            attrs = event.get("attrs") or {}
            for attr in COUNTER_ATTRS:
                value = attrs.get(attr)
                if isinstance(value, (int, float)):
                    totals[attr] += value
        return totals

    def problems(self, require_drain: bool = True) -> List[str]:
        """Structural defects: missing seams, orphans, bad nesting."""
        issues = []
        if self.root is None:
            return [f"{self.trace_id}: no root span"]
        expected = (self.root.get("attrs") or {}).get("spans")
        if isinstance(expected, int) and expected != len(self.spans):
            issues.append(
                f"{self.trace_id}: expected {expected} spans, "
                f"found {len(self.spans)}"
            )
        names = set(self.names())
        required = REQUIRED_SPANS + (("drain",) if require_drain else ())
        if self.root.get("status") == "error":
            required = tuple(name for name in required if name != "commit")
        for name in required:
            if name not in names:
                issues.append(f"{self.trace_id}: missing '{name}' span")
        root_id = self.root.get("span")
        for event in self.spans:
            if event is self.root:
                continue
            parent_id = event.get("parent")
            parent = self.by_id.get(parent_id)
            if parent is None:
                issues.append(
                    f"{self.trace_id}: span {event.get('span')} "
                    f"('{event.get('name')}') has unknown parent {parent_id}"
                )
                continue
            start = event.get("start")
            p_start = parent.get("start")
            if (
                start is not None
                and p_start is not None
                and start + 1e-9 < p_start
            ):
                issues.append(
                    f"{self.trace_id}: span {event.get('span')} "
                    f"('{event.get('name')}') starts before its parent"
                )
            # Root ends last by construction; only check non-root parents.
            end = event.get("end")
            p_end = parent.get("end")
            if (
                parent_id != root_id
                and end is not None
                and p_end is not None
                and end - 1e-9 > p_end
            ):
                issues.append(
                    f"{self.trace_id}: span {event.get('span')} "
                    f"('{event.get('name')}') ends after its parent"
                )
        return issues


def verify_batch_traces(
    events: Iterable[dict],
    require_drain: bool = True,
    expected_totals: Optional[Dict[str, int]] = None,
) -> List[str]:
    """All structural problems across *events*, plus counter reconciliation.

    When *expected_totals* is given (scheduler ``StreamStats`` totals), the
    sum of per-span counter deltas across every trace must match exactly.
    An empty return value means the acceptance criterion holds.
    """
    traces = group_traces(events)
    issues: List[str] = []
    if not traces:
        issues.append("no traces found")
    for view in traces:
        issues.extend(view.problems(require_drain=require_drain))
    if expected_totals is not None:
        summed = {attr: 0 for attr in COUNTER_ATTRS}
        for view in traces:
            for attr, value in view.counter_totals().items():
                summed[attr] += value
        for attr in COUNTER_ATTRS:
            expected = expected_totals.get(attr)
            if expected is not None and summed[attr] != expected:
                issues.append(
                    f"counter '{attr}' does not reconcile: "
                    f"spans sum to {summed[attr]}, scheduler says {expected}"
                )
    return issues


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_waterfall(view: TraceView, width: int = 48) -> str:
    """An ASCII waterfall of one trace, bars scaled to the root span."""
    if view.root is None or not view.spans:
        return f"{view.trace_id}: (no root span)"
    origin = view.root.get("start") or 0.0
    total = max((view.root.get("end") or origin) - origin, 1e-9)
    lines = [
        "{} {} {:.3f}s {}".format(
            view.trace_id,
            view.root.get("name"),
            total,
            _attr_brief(view.root),
        )
    ]
    rank = {name: i for i, name in enumerate(SPAN_ORDER)}
    ordered = sorted(
        (e for e in view.spans if e is not view.root),
        key=lambda e: (
            e.get("start") or 0.0,
            rank.get(e.get("name"), len(SPAN_ORDER)),
            e.get("span") or 0,
        ),
    )
    for event in ordered:
        start = (event.get("start") or origin) - origin
        end = (event.get("end") or origin) - origin
        left = int(round(width * max(start, 0.0) / total))
        right = int(round(width * max(end, start) / total))
        bar = " " * min(left, width) + "#" * max(right - left, 1)
        depth = _depth(view, event)
        label = "  " * depth + (event.get("name") or "?")
        status = "" if event.get("status") == "ok" else " !"
        lines.append(
            "  {:<18} |{:<{width}}| {:>8.3f}s{} {}".format(
                label[:18],
                bar[:width],
                max(end - start, 0.0),
                status,
                _attr_brief(event),
                width=width,
            )
        )
    return "\n".join(lines)


def top_spans(
    events: Iterable[dict], k: int = 10, exclude_roots: bool = True
) -> List[dict]:
    """The *k* slowest spans across all traces, slowest first."""
    candidates = []
    for event in events:
        if exclude_roots and event.get("parent") is None:
            continue
        start, end = event.get("start"), event.get("end")
        if start is None or end is None:
            continue
        candidates.append((end - start, event))
    candidates.sort(key=lambda pair: pair[0], reverse=True)
    return [event for _, event in candidates[: max(0, k)]]


def render_top_spans(events: Iterable[dict], k: int = 10) -> str:
    lines = [f"top {k} slowest spans:"]
    for event in top_spans(events, k=k):
        lines.append(
            "  {:>9.3f}s  {:<10} {:<8} thread={} {}".format(
                (event.get("end") or 0) - (event.get("start") or 0),
                event.get("name") or "?",
                event.get("trace") or "?",
                event.get("thread") or "?",
                _attr_brief(event),
            )
        )
    if len(lines) == 1:
        lines.append("  (no spans)")
    return "\n".join(lines)


def _depth(view: TraceView, event: dict) -> int:
    depth, seen = 0, set()
    current = event
    while True:
        parent_id = current.get("parent")
        if parent_id is None or parent_id in seen:
            return depth
        seen.add(parent_id)
        parent = view.by_id.get(parent_id)
        if parent is None:
            return depth
        depth += 1
        current = parent


def _attr_brief(event: dict, limit: int = 5) -> str:
    attrs = event.get("attrs") or {}
    shown = [
        f"{key}={attrs[key]}"
        for key in sorted(attrs)
        if isinstance(attrs[key], (int, float, str)) and key != "spans"
    ][:limit]
    return " ".join(shown)
