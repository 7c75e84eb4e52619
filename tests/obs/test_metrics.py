"""Tests for the metrics registry (counters, gauges, histograms)."""

from __future__ import annotations

import threading

import pytest

from repro.constraints import ConstraintSolver
from repro.datalog import parse_constrained_atom, parse_program
from repro.maintenance import DeletionRequest, InsertionRequest, MaintenanceStats
from repro.obs import NULL_METRICS, Metrics, Observability
from repro.obs.metrics import MAINTENANCE_COUNTERS, NullMetrics
from repro.stream import StreamOptions, StreamScheduler

RULES = """
a(X) <- X >= 3.
a(X) <- b(X).
b(X) <- X >= 5.
c(X) <- a(X).
"""


class TestCounters:
    def test_inc_accumulates(self):
        metrics = Metrics()
        metrics.inc("hits")
        metrics.inc("hits", 4)
        assert metrics.counter_value("hits") == 5

    def test_labels_separate_series(self):
        metrics = Metrics()
        metrics.inc("units", status="applied")
        metrics.inc("units", status="applied")
        metrics.inc("units", status="failed")
        assert metrics.counter_value("units", status="applied") == 2
        assert metrics.counter_value("units", status="failed") == 1
        assert metrics.counter_value("units") == 0  # unlabelled never moved

    def test_never_touched_counter_reads_zero(self):
        assert Metrics().counter_value("ghost") == 0

    def test_as_dict_renders_label_keys(self):
        metrics = Metrics()
        metrics.inc("units", 3, status="applied")
        metrics.inc("plain")
        snapshot = metrics.as_dict()
        assert snapshot["counters"]["units"] == {"status=applied": 3}
        assert snapshot["counters"]["plain"] == {"_": 1}


class TestGauges:
    def test_last_write_wins(self):
        metrics = Metrics()
        metrics.gauge("watermark", 3)
        metrics.gauge("watermark", 7)
        assert metrics.as_dict()["gauges"]["watermark"] == {"_": 7}


class TestHistograms:
    def test_observations_land_in_bounded_buckets(self):
        metrics = Metrics()
        metrics.observe("latency", 0.3, buckets=(0.1, 1.0))
        metrics.observe("latency", 0.05, buckets=(0.1, 1.0))
        metrics.observe("latency", 50.0)  # overflow; ladder already fixed
        series = metrics.as_dict()["histograms"]["latency"]["_"]
        assert series["count"] == 3
        assert series["sum"] == 0.3 + 0.05 + 50.0
        assert series["buckets"] == {"0.1": 1, "1.0": 1, "+Inf": 1}

    def test_bucket_ladder_is_fixed_at_first_observation(self):
        metrics = Metrics()
        metrics.observe("latency", 0.5, buckets=(1.0,))
        metrics.observe("latency", 0.5, buckets=(0.001, 0.002, 0.003))
        buckets = metrics.as_dict()["histograms"]["latency"]["_"]["buckets"]
        assert set(buckets) == {"1.0", "+Inf"}


class TestPrometheusRendering:
    def test_exposition_has_types_labels_and_cumulative_buckets(self):
        metrics = Metrics()
        metrics.inc("repro_batches_total", 2)
        metrics.gauge("repro_txn_watermark", 9)
        metrics.observe("repro_batch_seconds", 0.3, buckets=(0.1, 1.0))
        metrics.observe("repro_batch_seconds", 0.05, buckets=(0.1, 1.0))
        text = metrics.render_prometheus()
        assert "# TYPE repro_batches_total counter" in text
        assert "repro_batches_total 2" in text
        assert "# TYPE repro_txn_watermark gauge" in text
        assert "repro_txn_watermark 9" in text
        # Buckets are cumulative and close with +Inf, sum and count.
        assert 'repro_batch_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_batch_seconds_bucket{le="1"} 2' in text
        assert 'repro_batch_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_batch_seconds_count 2" in text

    def test_label_values_are_escaped(self):
        metrics = Metrics()
        metrics.inc("weird", source='say "hi"\\now')
        text = metrics.render_prometheus()
        assert 'source="say \\"hi\\"\\\\now"' in text


class TestRecordMaintenance:
    def test_mirrors_the_closed_counter_set_by_algorithm(self):
        metrics = Metrics()
        stats = MaintenanceStats()
        stats.solver_calls = 4
        stats.derivation_attempts = 9
        stats.subsumed_rederived = 100  # outside the closed set: not mirrored
        metrics.record_maintenance("stdel", stats)
        assert (
            metrics.counter_value(
                "repro_maintenance_solver_calls_total", algorithm="stdel"
            )
            == 4
        )
        assert (
            metrics.counter_value(
                "repro_maintenance_derivation_attempts_total", algorithm="stdel"
            )
            == 9
        )
        names = set(metrics.as_dict()["counters"])
        assert names == {
            "repro_maintenance_solver_calls_total",
            "repro_maintenance_derivation_attempts_total",
        }

    def test_zero_counters_create_no_series(self):
        metrics = Metrics()
        metrics.record_maintenance("dred", MaintenanceStats())
        assert metrics.as_dict()["counters"] == {}

    def test_counter_set_matches_maintenance_stats_fields(self):
        stats = MaintenanceStats()
        for counter in MAINTENANCE_COUNTERS:
            assert hasattr(stats, counter), counter


class TestSchedulerMirrorsEachPass:
    @pytest.mark.parametrize(
        "algorithm, request_",
        [
            ("stdel", DeletionRequest(parse_constrained_atom("b(X) <- X = 6"))),
            ("dred", DeletionRequest(parse_constrained_atom("b(X) <- X = 6"))),
            ("insert", InsertionRequest(parse_constrained_atom("b(X) <- X = 1"))),
        ],
    )
    def test_a_batch_moves_its_algorithms_counters_by_its_totals(
        self, algorithm, request_
    ):
        obs = Observability.enabled_with()
        scheduler = StreamScheduler(
            parse_program(RULES),
            ConstraintSolver(),
            options=StreamOptions(
                deletion_algorithm="dred" if algorithm == "dred" else "stdel",
                max_workers=1,
            ),
            obs=obs,
        )
        totals = scheduler.apply_batch((request_,)).stats.totals()
        assert totals.solver_calls + totals.derivation_attempts > 0
        for counter in ("solver_calls", "derivation_attempts"):
            assert obs.metrics.counter_value(
                f"repro_maintenance_{counter}_total", algorithm=algorithm
            ) == getattr(totals, counter)


class TestNullMetrics:
    def test_mutators_are_no_ops_and_readers_stay_functional(self):
        null = NullMetrics()
        null.inc("hits", 5)
        null.gauge("watermark", 3)
        null.observe("latency", 0.2)
        null.record_maintenance("stdel", MaintenanceStats())
        assert null.counter_value("hits") == 0
        assert null.as_dict() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert null.render_prometheus() == ""

    def test_enabled_flags(self):
        assert Metrics().enabled is True
        assert NULL_METRICS.enabled is False


class TestThreadSafety:
    def test_concurrent_increments_never_lose_updates(self):
        metrics = Metrics()

        def worker():
            for _ in range(500):
                metrics.inc("hits")
                metrics.observe("latency", 0.001)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.counter_value("hits") == 8 * 500
        series = metrics.as_dict()["histograms"]["latency"]["_"]
        assert series["count"] == 8 * 500
