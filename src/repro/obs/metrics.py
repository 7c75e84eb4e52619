"""A thread-safe metrics registry: counters, gauges, bounded histograms.

One :class:`Metrics` handle is injected through the stream scheduler, the
serving layer and the durability manager (the scheduler mirrors each
maintenance pass's counters; the algorithms know no registry); it absorbs
the per-subsystem counters those layers used to keep in scattered
dataclasses behind a single queryable surface.  Two renderings exist:
``as_dict()`` for the JSON-lines wire protocol and benchmark snapshots, and
``render_prometheus()`` for scrape-style text exposition.

Design constraints, in order:

1. **Near-zero overhead when disabled.**  :data:`NULL_METRICS` is a
   singleton whose mutators are empty methods -- one attribute lookup and
   one no-op call per instrumentation point, no branches at the call site,
   no locks, no allocation.  Every injection point defaults to it.
2. **Thread-safe when enabled.**  The scheduler bumps counters from worker
   threads, the serve layer from the event loop's pools, the durability
   manager from whichever thread checkpoints; one registry lock covers all
   mutation (the touched state is a dict update -- the lock is never held
   across anything slow).
3. **Bounded memory.**  Histograms carry a fixed bucket ladder (no
   per-observation storage) and label cardinality is in the caller's hands
   -- the instrumentation only ever uses small closed label sets
   (algorithm names, unit status), never user data.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Mapping, Optional, Tuple

#: Default histogram ladder (seconds): microbenchmark floor to "something
#: is badly wrong" ceiling.  ``+Inf`` is implicit (the overflow bucket).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: The MaintenanceStats counters mirrored into the registry per algorithm
#: pass (a closed set, to keep label/metric cardinality bounded).
MAINTENANCE_COUNTERS: Tuple[str, ...] = (
    "solver_calls",
    "derivation_attempts",
    "index_probes",
    "quick_rejects",
    "support_probes",
    "removed_entries",
    "rederived_entries",
    "replaced_entries",
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelItems:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _render_labels(items: LabelItems) -> str:
    if not items:
        return ""
    body = ",".join(
        '{}="{}"'.format(key, value.replace("\\", "\\\\").replace('"', '\\"'))
        for key, value in items
    )
    return "{" + body + "}"


class Metrics:
    """The registry and the handle are the same object.

    Instrumented code calls the three mutators (:meth:`inc`, :meth:`gauge`,
    :meth:`observe`); operators read :meth:`as_dict` /
    :meth:`render_prometheus`.  All methods are safe from any thread.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict[LabelItems, float]] = {}
        self._gauges: Dict[str, Dict[LabelItems, float]] = {}
        # name -> (bounds, {labels -> [bucket counts..., overflow]}, sums, counts)
        self._histograms: Dict[
            str,
            Tuple[
                Tuple[float, ...],
                Dict[LabelItems, list],
                Dict[LabelItems, float],
                Dict[LabelItems, int],
            ],
        ] = {}

    # ------------------------------------------------------------------
    # Mutators (instrumentation points)
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1, **labels: object) -> None:
        """Add *amount* to the counter *name* (monotonically increasing)."""
        key = _label_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0) + amount

    def gauge(self, name: str, value: float, **labels: object) -> None:
        """Set the gauge *name* to *value* (last write wins)."""
        key = _label_key(labels)
        with self._lock:
            self._gauges.setdefault(name, {})[key] = value

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[Iterable[float]] = None,
        **labels: object,
    ) -> None:
        """Record *value* into the bounded-bucket histogram *name*.

        The bucket ladder is fixed at the histogram's first observation
        (*buckets* is ignored afterwards), so memory per histogram is
        ``O(len(ladder))`` regardless of observation count.
        """
        key = _label_key(labels)
        with self._lock:
            entry = self._histograms.get(name)
            if entry is None:
                bounds = tuple(sorted(buckets)) if buckets else DEFAULT_BUCKETS
                entry = (bounds, {}, {}, {})
                self._histograms[name] = entry
            bounds, counts, sums, totals = entry
            row = counts.get(key)
            if row is None:
                row = counts[key] = [0] * (len(bounds) + 1)
            index = len(bounds)
            for position, bound in enumerate(bounds):
                if value <= bound:
                    index = position
                    break
            row[index] += 1
            sums[key] = sums.get(key, 0.0) + value
            totals[key] = totals.get(key, 0) + 1

    def record_maintenance(self, algorithm: str, stats) -> None:
        """Mirror one maintenance pass's counters, labelled by algorithm.

        *stats* is a :class:`~repro.maintenance.requests.MaintenanceStats`;
        the stream scheduler calls this once per pass it runs.  Only the
        closed :data:`MAINTENANCE_COUNTERS` set is mirrored, so the
        registry's cardinality stays bounded.
        """
        for counter in MAINTENANCE_COUNTERS:
            value = getattr(stats, counter, 0)
            if value:
                self.inc(
                    f"repro_maintenance_{counter}_total",
                    value,
                    algorithm=algorithm,
                )

    def set_counter(self, name: str, value: float, **labels: object) -> None:
        """Advance the counter *name* to the absolute *value*.

        For sources that keep their own monotonic totals (the intern
        tables' lock-protected hit/miss ints): the series is set to the
        observed total, never moved backwards, so scrapes stay monotonic
        even when several recording points race.
        """
        key = _label_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            current = series.get(key, 0)
            if value > current:
                series[key] = value

    def record_intern(self, stats: Optional[Mapping[str, object]] = None) -> None:
        """Mirror the hash-consing tables' totals into the registry.

        *stats* defaults to a fresh
        :func:`repro.constraints.intern.intern_stats` snapshot.  Per-table
        hit/miss totals become the
        ``repro_constraints_intern_{hits,misses}_total`` counters (labelled
        by table) and the live node count becomes the
        ``repro_constraints_intern_table_size`` gauge -- the table set is
        closed (one per node kind), so cardinality stays bounded.
        """
        if stats is None:
            from repro.constraints.intern import intern_stats

            stats = intern_stats()
        tables = stats.get("tables", {})
        for table_name, row in tables.items():
            self.set_counter(
                "repro_constraints_intern_hits_total",
                row["hits"],
                table=table_name,
            )
            self.set_counter(
                "repro_constraints_intern_misses_total",
                row["misses"],
                table=table_name,
            )
            self.gauge(
                "repro_constraints_intern_table_size",
                row["size"],
                table=table_name,
            )
        for event, value in stats.get("events", {}).items():
            self.set_counter(f"repro_constraints_{event}_total", value)

    def record_domains(self, solver) -> None:
        """Mirror the read path's own totals into the registry.

        *solver* is the :class:`~repro.constraints.solver.ConstraintSolver`
        reads go through.  Its evaluator's per-domain call counters (the
        domain registry's ``call_counters``) become
        ``repro_domains_calls_total`` / ``repro_domains_memo_hits_total``
        (labelled by domain -- a closed set, one per registered source) and
        the solver's instance-memo pair becomes
        ``repro_read_instance_memo_{hits,misses}_total``.  Like
        :meth:`record_intern` this is an absolute-value sync of totals the
        sources keep themselves, not a hook on the hot path.
        """
        counters = getattr(solver.evaluator, "call_counters", None)
        if counters is not None:
            for domain, row in counters().items():
                self.set_counter(
                    "repro_domains_calls_total", row["calls"], domain=domain
                )
                self.set_counter(
                    "repro_domains_memo_hits_total", row["memo_hits"], domain=domain
                )
        self.set_counter(
            "repro_read_instance_memo_hits_total", solver.instance_memo_hits
        )
        self.set_counter(
            "repro_read_instance_memo_misses_total", solver.instance_memo_misses
        )

    # ------------------------------------------------------------------
    # Readers (operator surface)
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """A JSON-friendly snapshot of every series."""
        with self._lock:
            counters = {
                name: {
                    (",".join(f"{k}={v}" for k, v in key) or "_"): value
                    for key, value in series.items()
                }
                for name, series in sorted(self._counters.items())
            }
            gauges = {
                name: {
                    (",".join(f"{k}={v}" for k, v in key) or "_"): value
                    for key, value in series.items()
                }
                for name, series in sorted(self._gauges.items())
            }
            histograms = {}
            for name, (bounds, counts, sums, totals) in sorted(
                self._histograms.items()
            ):
                histograms[name] = {
                    (",".join(f"{k}={v}" for k, v in key) or "_"): {
                        "buckets": dict(
                            zip([str(b) for b in bounds] + ["+Inf"], row)
                        ),
                        "sum": sums[key],
                        "count": totals[key],
                    }
                    for key, row in counts.items()
                }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def render_prometheus(self) -> str:
        """Prometheus text exposition (v0.0.4) of every series."""
        lines = []
        with self._lock:
            for name, series in sorted(self._counters.items()):
                lines.append(f"# TYPE {name} counter")
                for key, value in sorted(series.items()):
                    lines.append(f"{name}{_render_labels(key)} {_format(value)}")
            for name, series in sorted(self._gauges.items()):
                lines.append(f"# TYPE {name} gauge")
                for key, value in sorted(series.items()):
                    lines.append(f"{name}{_render_labels(key)} {_format(value)}")
            for name, (bounds, counts, sums, totals) in sorted(
                self._histograms.items()
            ):
                lines.append(f"# TYPE {name} histogram")
                for key in sorted(counts):
                    row = counts[key]
                    cumulative = 0
                    for bound, bucket in zip(bounds, row):
                        cumulative += bucket
                        items = key + (("le", _format(bound)),)
                        lines.append(
                            f"{name}_bucket{_render_labels(items)} {cumulative}"
                        )
                    cumulative += row[-1]
                    items = key + (("le", "+Inf"),)
                    lines.append(
                        f"{name}_bucket{_render_labels(items)} {cumulative}"
                    )
                    lines.append(
                        f"{name}_sum{_render_labels(key)} {_format(sums[key])}"
                    )
                    lines.append(
                        f"{name}_count{_render_labels(key)} {totals[key]}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def counter_value(self, name: str, **labels: object) -> float:
        """One counter's current value (0 when the series never moved)."""
        key = _label_key(labels)
        with self._lock:
            return self._counters.get(name, {}).get(key, 0)


class NullMetrics(Metrics):
    """The disabled handle: every mutator is an empty method, no locks.

    The readers stay functional (they report an empty registry), so the
    operator surface never has to branch on whether metrics are on.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def inc(self, name: str, amount: float = 1, **labels: object) -> None:
        pass

    def gauge(self, name: str, value: float, **labels: object) -> None:
        pass

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[Iterable[float]] = None,
        **labels: object,
    ) -> None:
        pass

    def record_maintenance(self, algorithm: str, stats) -> None:
        pass

    def set_counter(self, name: str, value: float, **labels: object) -> None:
        pass

    def record_intern(self, stats: Optional[Mapping[str, object]] = None) -> None:
        pass

    def record_domains(self, solver) -> None:
        pass


def _format(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


#: Shared disabled handle -- the default at every injection point.
NULL_METRICS = NullMetrics()
