"""The ``Observability`` bundle: one object carrying metrics + tracing.

Every injection point in the pipeline takes a single ``obs`` parameter
rather than separate metrics/tracer handles, so wiring a new subsystem is
one argument and disabling everything is one singleton
(:func:`Observability.disabled`).  Environment activation follows the
repo's existing ``REPRO_*`` convention:

``REPRO_OBS=1``
    Enable metrics + in-memory trace ring (the live operator surface).
``REPRO_OBS_TRACE_PATH=/path/file.jsonl``
    Additionally export trace events to a JSON-lines file (implies
    ``REPRO_OBS``).
``REPRO_OBS_SLOW_BATCH_MS=250``
    Log a warning for any batch whose drain→commit wall time exceeds the
    threshold (default 1000 ms, also what a malformed value falls back to,
    with a warning; only meaningful when obs is enabled).
"""

from __future__ import annotations

import logging
import os
import warnings
from typing import Optional

from .metrics import Metrics, NULL_METRICS
from .trace import NULL_TRACE, JsonLinesExporter, RingExporter, Trace, Tracer

logger = logging.getLogger("repro.obs")

DEFAULT_SLOW_BATCH_SECONDS = 1.0
DEFAULT_RING_CAPACITY = 4096


class Observability:
    """Metrics registry + tracer + slow-batch policy, as one handle."""

    def __init__(
        self,
        metrics: Optional[Metrics] = None,
        ring: Optional[RingExporter] = None,
        file_exporter: Optional[JsonLinesExporter] = None,
        slow_batch_seconds: float = DEFAULT_SLOW_BATCH_SECONDS,
    ) -> None:
        self.metrics = NULL_METRICS if metrics is None else metrics
        self.ring = ring
        self.file_exporter = file_exporter
        exporters = [e for e in (ring, file_exporter) if e is not None]
        self.tracer = Tracer(exporters) if exporters else None
        self.slow_batch_seconds = slow_batch_seconds

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.metrics.enabled or self.tracer is not None

    def start_trace(self, name: str = "batch") -> Trace:
        """A new trace -- the shared :data:`NULL_TRACE` when tracing is off.

        The no-op trace hands out no-op spans, so instrumented code opens
        and fills spans unconditionally; nothing branches on whether the
        batch is traced.
        """
        if self.tracer is None:
            return NULL_TRACE
        return self.tracer.start_trace(name)

    def note_slow_batch(self, seconds: float, **context: object) -> bool:
        """Log (and count) a batch that blew the slow-batch threshold."""
        if seconds < self.slow_batch_seconds:
            return False
        self.metrics.inc("repro_slow_batches_total")
        detail = " ".join(f"{k}={v}" for k, v in sorted(context.items()))
        logger.warning(
            "slow batch: %.3fs (threshold %.3fs) %s",
            seconds,
            self.slow_batch_seconds,
            detail,
        )
        return True

    def close(self) -> None:
        if self.file_exporter is not None:
            self.file_exporter.close()

    # ------------------------------------------------------------------
    @staticmethod
    def disabled() -> "Observability":
        """The shared no-op bundle (default at every injection point)."""
        return OBS_DISABLED

    @staticmethod
    def enabled_with(
        trace_path: Optional[str] = None,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        slow_batch_seconds: float = DEFAULT_SLOW_BATCH_SECONDS,
    ) -> "Observability":
        """A live bundle: real registry, ring exporter, optional file."""
        return Observability(
            metrics=Metrics(),
            ring=RingExporter(capacity=ring_capacity),
            file_exporter=(
                JsonLinesExporter(trace_path) if trace_path else None
            ),
            slow_batch_seconds=slow_batch_seconds,
        )

    @staticmethod
    def from_env(environ: Optional[dict] = None) -> "Observability":
        """Resolve the bundle from ``REPRO_OBS*`` environment variables."""
        env = os.environ if environ is None else environ
        trace_path = env.get("REPRO_OBS_TRACE_PATH") or None
        flag = env.get("REPRO_OBS", "").strip().lower()
        enabled = flag not in ("", "0", "false", "no") or trace_path is not None
        if not enabled:
            return OBS_DISABLED
        slow_ms = env.get("REPRO_OBS_SLOW_BATCH_MS", "").strip()
        try:
            slow_seconds = float(slow_ms) / 1000.0 if slow_ms else (
                DEFAULT_SLOW_BATCH_SECONDS
            )
        except ValueError:
            warnings.warn(
                f"REPRO_OBS_SLOW_BATCH_MS={slow_ms!r} is not a number; "
                f"falling back to {DEFAULT_SLOW_BATCH_SECONDS * 1000:.0f} ms",
                RuntimeWarning,
                stacklevel=2,
            )
            slow_seconds = DEFAULT_SLOW_BATCH_SECONDS
        return Observability.enabled_with(
            trace_path=trace_path, slow_batch_seconds=slow_seconds
        )


#: Shared disabled bundle (null metrics, no tracer, no batch ever slow);
#: ``Observability.disabled()`` returns it.
OBS_DISABLED = Observability(slow_batch_seconds=float("inf"))
