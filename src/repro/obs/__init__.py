"""Unified observability: metrics registry, batch tracing, renderers.

See ``README.md`` in this package for the span-to-pipeline-seam map and
``config.Observability`` for the single handle every subsystem takes.
"""

from .config import (
    DEFAULT_SLOW_BATCH_SECONDS,
    OBS_DISABLED,
    Observability,
)
from .metrics import (
    DEFAULT_BUCKETS,
    MAINTENANCE_COUNTERS,
    Metrics,
    NULL_METRICS,
    NullMetrics,
)
from .render import (
    COUNTER_ATTRS,
    REQUIRED_SPANS,
    SPAN_ORDER,
    TraceView,
    group_traces,
    read_events,
    render_top_spans,
    render_waterfall,
    top_spans,
    verify_batch_traces,
)
from .trace import (
    NULL_TRACE,
    JsonLinesExporter,
    RingExporter,
    Span,
    Trace,
    Tracer,
)

__all__ = [
    "COUNTER_ATTRS",
    "DEFAULT_BUCKETS",
    "DEFAULT_SLOW_BATCH_SECONDS",
    "JsonLinesExporter",
    "MAINTENANCE_COUNTERS",
    "Metrics",
    "NULL_METRICS",
    "NULL_TRACE",
    "NullMetrics",
    "OBS_DISABLED",
    "Observability",
    "REQUIRED_SPANS",
    "RingExporter",
    "SPAN_ORDER",
    "Span",
    "Trace",
    "TraceView",
    "Tracer",
    "group_traces",
    "read_events",
    "render_top_spans",
    "render_waterfall",
    "top_spans",
    "verify_batch_traces",
]
