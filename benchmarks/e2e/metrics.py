"""Metric names, units and definitions; ``Outcome`` -> the numbers printed.

``BENCHMARK.json`` declares to the driver which of these names are printed
with ``--trace 0`` (end to end, each with its bound) and which with
``--trace 1`` (per layer); ``test_harness.py`` checks that it declares
exactly the names computed here.  Definitions are in ``README.md``.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, Optional, Tuple

from layers import LAYERS, layer_self_seconds, top_self_times
from scenarios import MAINTENANCE_COUNTS, Outcome, maintenance_totals, pair_ms

#: ``(name, unit, better)`` -- what a user of the system sees.  Every
#: workload reports every one; what each means there is in the README.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("update_ms_p50", "ms", "lower"),
    ("delete_ms_p50", "ms", "lower"),
    ("insert_ms_p50", "ms", "lower"),
    ("updates_per_s", "1/s", "higher"),
    ("query_ms_p50", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_CALLS_AND_BUSY = (
    "constraints.sat", "constraints.subsume", "constraints.solutions",
    "datalog.fixpoint", "datalog.view_copy", "datalog.shard_clone", "datalog.query",
    "maintenance.stdel", "serve.dispatch", "persist.wal_append", "persist.checkpoint",
)
_BUSY_ONLY = (
    "constraints.simplify", "datalog.prune", "datalog.name_scan",
    "maintenance.dred", "maintenance.insert", "maintenance.rewrite",
    "analysis.analyze", "stream.coalesce", "stream.prepare",
    "serve.parse", "persist.encode", "persist.load",
)


def _per_layer_names() -> List[Tuple[str, str, str]]:
    names: List[Tuple[str, str, str]] = []
    for stem in _CALLS_AND_BUSY:
        names.append((f"{stem}_calls", "count", "lower"))
        names.append((f"{stem}_busy_s", "s", "lower"))
    for stem in _BUSY_ONLY:
        names.append((f"{stem}_busy_s", "s", "lower"))
    names += [
        ("constraints.memo_hit_frac", "ratio", "higher"),
        ("constraints.intern_hit_frac", "ratio", "higher"),
        ("constraints.intern_nodes", "count", "lower"),
        ("datalog.shard_checkouts", "count", "lower"),
        ("datalog.view_entries", "count", "lower"),
    ]
    names += [(f"maintenance.{name}", "count", "lower") for name in MAINTENANCE_COUNTS]
    names += [
        ("maintenance.changed_entries", "count", "higher"),
        ("maintenance.attempts_per_changed_entry", "ratio", "lower"),
        ("stream.apply_self_s", "s", "lower"),
        ("stream.coalesce_kept_frac", "ratio", "lower"),
        ("stream.queue_wait_s", "s", "lower"),
        ("stream.units", "count", "lower"),
        ("stream.unit_retries", "count", "lower"),
        ("stream.failed_units", "count", "lower"),
        ("serve.query_wait_s", "s", "lower"),
        ("serve.submit_wait_s", "s", "lower"),
        ("serve.batches_applied", "count", "lower"),
        ("serve.batch_size_mean", "count", "higher"),
        ("serve.client_late_ms_p90", "ms", "lower"),
        ("serve.update_ms_p90", "ms", "lower"),
        ("serve.query_ms_p90", "ms", "lower"),
        ("serve.recover_s", "s", "lower"),
        ("serve.disk_bytes_per_update", "B", "lower"),
        ("persist.wal_bytes", "B", "lower"),
        ("persist.checkpoint_bytes", "B", "lower"),
        ("persist.shards_written", "count", "lower"),
        ("persist.shard_reuse_frac", "ratio", "higher"),
        ("persist.update_stall_ms_max", "ms", "lower"),
        ("persist.replay_busy_s", "s", "lower"),
        ("persist.replayed_batches", "count", "lower"),
        ("domains.calls", "count", "lower"),
        ("domains.call_busy_s", "s", "lower"),
        ("ladder.scale_exponent", "exponent", "lower"),
        ("ladder.top_to_bottom_ratio", "ratio", "lower"),
        ("ladder.attempts_ratio_top_to_bottom", "ratio", "lower"),
        ("ladder.top_rung_attributed_frac", "ratio", "higher"),
        ("recursive.dred_update_ms_p50", "ms", "lower"),
    ]
    names += [(f"share.{layer}_frac", "ratio", "lower") for layer in LAYERS]
    names += [
        ("trace.attributed_frac", "ratio", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return names


PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(_per_layer_names())


def end_to_end(outcome: Outcome) -> Dict[str, float]:
    """What a user of the system sees, from one run (traced or not)."""
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "update_ms_p50": statistics.median(pair_ms(outcome.delete_ms, outcome.insert_ms)),
        "delete_ms_p50": statistics.median(outcome.delete_ms),
        "insert_ms_p50": statistics.median(outcome.insert_ms),
        "updates_per_s": outcome.throughput_requests / outcome.throughput_s,
        "query_ms_p50": statistics.median(outcome.query_ms),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def detail(outcome: Outcome) -> Dict[str, object]:
    """What else an untraced run knows: sample counts, the raw speed of the
    machine, and the workload's own numbers."""
    info: Dict[str, object] = {
        "samples": {
            "setup": len(outcome.setup_s),
            "update_pairs": min(len(outcome.delete_ms), len(outcome.insert_ms)),
            "delete": len(outcome.delete_ms),
            "insert": len(outcome.insert_ms),
            "query": len(outcome.query_ms),
        },
        "machine_slowdown": outcome.slowdown,
        "measured_raw_s": outcome.measured_raw_s,
        "view_entries": outcome.view_entries,
        "checks": outcome.checks,
    }
    info.update(outcome.detail)
    return info


def work_only(
    calls: Mapping[str, Tuple[int, float, float]], rows: List[Mapping[str, object]]
) -> Dict[str, Tuple[int, float, float]]:
    """*calls* with waiting taken out of ``stream.apply``'s self time.

    ``apply_prepared`` blocks inside itself until conflicting earlier
    batches have committed (``StreamStats.queue_seconds``): that is not
    work, and in the server it would otherwise rank among the hot spots.
    """
    adjusted = dict(calls)
    if "stream.apply" in adjusted:
        count, self_s, total_s = adjusted["stream.apply"]
        waited = sum(row["queue_seconds"] for row in rows)
        adjusted["stream.apply"] = (count, max(0.0, self_s - waited), total_s)
    return adjusted


def timed_entry_points(outcome: Outcome) -> Dict[str, Tuple[int, float, float]]:
    """Wrapper totals inside the timed operations, harness spans left out."""
    return work_only(
        {n: c for n, c in outcome.op_calls.items() if not n.startswith("harness.")},
        outcome.batches,
    )


def hot_spots(outcome: Outcome) -> List[List[object]]:
    """The five entry points with the largest self time (reference speed)."""
    return [
        [name, seconds / outcome.slowdown]
        for name, seconds in top_self_times(timed_entry_points(outcome))
    ]


def repeat_counts(outcome: Outcome) -> Dict[str, float]:
    """The counts the program itself makes (``MaintenanceStats``,
    ``StreamStats``): with fixed work they repeat exactly from run to run,
    traced or not, which is what lets a later change be judged by them."""
    rows = outcome.batches
    counts, changed = maintenance_totals(rows)
    values = {f"maintenance.{name}": float(amount) for name, amount in counts.items()}
    values["maintenance.changed_entries"] = float(changed)
    values["stream.units"] = float(sum(row["units"] for row in rows))
    values["persist.replayed_batches"] = outcome.detail.get("replayed_batches", 0.0)
    return values


def per_layer(
    outcome: Outcome,
    intern_before: Optional[Mapping[str, object]],
    overhead_frac: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``outcome.calls`` covers the whole pass up to the end of the measured
    loop (one set-up, every episode's scheduler, the timed operations);
    ``outcome.op_calls`` the timed operations alone.  *intern_before* is
    ``intern_stats()`` when the pass began (``None``: a fresh process).
    Seconds are at reference speed.
    """
    server, flat = outcome.server, outcome.batches
    calls, intern_after = work_only(outcome.calls, flat), outcome.intern
    if intern_before is None:
        intern_before = {"events": {"sat_node_hits": 0}, "hits": 0, "misses": 0}
    speed = outcome.slowdown or 1.0
    values: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}

    def count(name: str) -> int:
        return calls.get(name, (0, 0.0, 0.0))[0]

    def self_s(name: str) -> float:
        return calls.get(name, (0, 0.0, 0.0))[1] / speed

    def total_s(name: str) -> float:
        return calls.get(name, (0, 0.0, 0.0))[2] / speed

    for stem in _CALLS_AND_BUSY:
        values[f"{stem}_calls"] = count(stem)
        values[f"{stem}_busy_s"] = self_s(stem)
    for stem in _BUSY_ONLY:
        values[f"{stem}_busy_s"] = self_s(stem)
    values["domains.calls"] = count("domains.call")
    values["domains.call_busy_s"] = self_s("domains.call")
    # Waiting = wall time of the coroutine minus what ran, here or in the pool.
    values["serve.query_wait_s"] = max(
        0.0, total_s("serve.query") - self_s("serve.query") - total_s("datalog.query")
    )
    values["serve.submit_wait_s"] = max(0.0, total_s("serve.submit") - self_s("serve.submit"))

    events_before = intern_before["events"]
    events_after = intern_after["events"]
    sat_hits = events_after["sat_node_hits"] - events_before["sat_node_hits"]
    if count("constraints.sat"):
        values["constraints.memo_hit_frac"] = sat_hits / count("constraints.sat")
    lookups = (intern_after["hits"] - intern_before["hits"]) + (
        intern_after["misses"] - intern_before["misses"]
    )
    if lookups:
        values["constraints.intern_hit_frac"] = (
            intern_after["hits"] - intern_before["hits"]
        ) / lookups
    values["constraints.intern_nodes"] = intern_after["size"]
    values["datalog.view_entries"] = outcome.view_entries

    # -- the program's own stats objects ---------------------------------
    counts, changed = maintenance_totals(flat)
    for name, amount in counts.items():
        values[f"maintenance.{name}"] = amount
    values["maintenance.changed_entries"] = changed
    if changed:
        values["maintenance.attempts_per_changed_entry"] = (
            counts["derivation_attempts"] / changed
        )
    submitted = sum(b["submitted"] for b in flat)
    if submitted:
        values["stream.coalesce_kept_frac"] = sum(b["applied"] for b in flat) / submitted
    values["datalog.shard_checkouts"] = sum(b["shard_checkouts"] for b in flat)
    values["stream.queue_wait_s"] = sum(b["queue_seconds"] for b in flat) / speed
    values["stream.apply_self_s"] = self_s("stream.apply")
    values["stream.units"] = sum(b["units"] for b in flat)
    values["stream.failed_units"] = sum(b["failed_units"] for b in flat)
    values["stream.unit_retries"] = sum(b["unit_retries"] for b in flat)

    if server:
        service = server["service"]
        durability = server["durability"]
        counters = server["counters"]
        values["serve.batches_applied"] = service["batches_applied"]
        if service["batches_applied"]:
            values["serve.batch_size_mean"] = submitted / service["batches_applied"]
        values["persist.wal_bytes"] = counters["wal_bytes"]
        values["persist.checkpoint_bytes"] = counters["checkpoint_bytes"]
        values["persist.shards_written"] = durability["shards_written"]
        shards = durability["shards_written"] + durability["shards_reused"]
        if shards:
            values["persist.shard_reuse_frac"] = durability["shards_reused"] / shards
        recovery = server.get("recovery", {}).get("calls", {})
        if recovery:
            # The restarted server: loading the snapshot, and everything
            # else ``open_scheduler`` did, which is replaying the WAL tail.
            loaded = recovery.get("persist.load", (0, 0.0, 0.0))
            opened = recovery.get("persist.open", (0, 0.0, 0.0))
            values["persist.load_busy_s"] = loaded[1] / speed
            values["persist.replay_busy_s"] = max(0.0, opened[2] - loaded[2]) / speed
        values["persist.replayed_batches"] = outcome.detail.get("replayed_batches", 0.0)
        for name in ("client_late_ms_p90", "update_ms_p90", "query_ms_p90", "recover_s",
                     "disk_bytes_per_update"):
            values[f"serve.{name}"] = outcome.detail.get(name, 0.0)
        values["persist.update_stall_ms_max"] = outcome.detail.get("update_stall_ms_max", 0.0)

    for name in ("scale_exponent", "top_to_bottom_ratio", "attempts_ratio_top_to_bottom",
                 "top_rung_attributed_frac"):
        values[f"ladder.{name}"] = outcome.detail.get(name, 0.0)
    values["recursive.dred_update_ms_p50"] = outcome.detail.get("dred_update_ms_p50", 0.0)

    # -- shares: where the timed operations' time went ---------------------
    by_layer = layer_self_seconds(timed_entry_points(outcome))
    attributed = sum(by_layer.values())
    if attributed:
        for layer in LAYERS:
            values[f"share.{layer}_frac"] = by_layer[layer] / attributed
    wall = sum(c[2] for n, c in outcome.op_calls.items() if n.startswith("harness."))
    if wall:
        values["trace.attributed_frac"] = attributed / wall
    values["trace.overhead_frac"] = overhead_frac
    return values
