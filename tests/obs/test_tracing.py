"""Tests for traces, spans, exporters, and the trace-file verifier."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import (
    NULL_TRACE,
    JsonLinesExporter,
    Observability,
    RingExporter,
    Tracer,
    group_traces,
    read_events,
    render_top_spans,
    render_waterfall,
    verify_batch_traces,
)


def make_tracer():
    ring = RingExporter()
    return Tracer([ring]), ring


class TestSpans:
    def test_finished_spans_emit_events_with_parentage(self):
        tracer, ring = make_tracer()
        trace = tracer.start_trace("batch")
        outer = trace.span("apply")
        inner = trace.span("unit", parent=outer).set(solver_calls=3)
        inner.finish()
        outer.finish()
        trace.finish()
        events = ring.events()
        assert [e["name"] for e in events] == ["unit", "apply", "batch"]
        unit, apply_event, root = events
        assert unit["parent"] == apply_event["span"]
        assert apply_event["parent"] == root["span"]
        assert root["parent"] is None
        assert unit["attrs"]["solver_calls"] == 3
        assert all(e["trace"] == trace.trace_id for e in events)
        assert all(e["end"] >= e["start"] for e in events)

    def test_root_carries_the_recorded_span_count(self):
        tracer, ring = make_tracer()
        trace = tracer.start_trace("batch")
        trace.span("drain").finish()
        trace.span("commit").finish()
        trace.finish()
        root = next(e for e in ring.events() if e["parent"] is None)
        assert root["attrs"]["spans"] == 3

    def test_finish_is_idempotent(self):
        tracer, ring = make_tracer()
        trace = tracer.start_trace("batch")
        span = trace.span("drain")
        span.finish()
        span.finish()
        trace.finish()
        trace.finish()
        assert len(ring.events()) == 2

    def test_context_manager_marks_errors_and_reraises(self):
        tracer, ring = make_tracer()
        trace = tracer.start_trace("batch")
        with pytest.raises(RuntimeError):
            with trace.span("apply"):
                raise RuntimeError("source offline")
        (event,) = ring.events()
        assert event["status"] == "error"
        assert "source offline" in event["attrs"]["error"]

    def test_spans_record_the_thread_that_created_them(self):
        tracer, ring = make_tracer()
        trace = tracer.start_trace("batch")

        def worker():
            trace.span("unit").finish()

        thread = threading.Thread(target=worker, name="pool-worker-0")
        thread.start()
        thread.join()
        trace.finish()
        unit = next(e for e in ring.events() if e["name"] == "unit")
        root = next(e for e in ring.events() if e["parent"] is None)
        assert unit["thread"] == "pool-worker-0"
        assert unit["thread"] != root["thread"]

    def test_record_span_backfills_a_measured_interval(self):
        tracer, ring = make_tracer()
        trace = tracer.start_trace("batch")
        trace.record_span("checkpoint", 5.0, 6.5, watermark=9)
        trace.finish()
        event = next(e for e in ring.events() if e["name"] == "checkpoint")
        assert event["start"] == 5.0 and event["end"] == 6.5
        assert event["attrs"]["watermark"] == 9


class TestJsonLinesExporter:
    def test_events_round_trip_through_the_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        exporter = JsonLinesExporter(path)
        tracer = Tracer([exporter])
        trace = tracer.start_trace("batch")
        trace.span("drain").finish()
        trace.finish()
        exporter.close()
        assert exporter.events_written == 2
        events = read_events(path)
        assert [e["name"] for e in events] == ["drain", "batch"]

    def test_read_events_skips_blank_and_corrupt_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = {"type": "span", "trace": "t1", "span": 1, "parent": None,
                "name": "batch", "start": 0.0, "end": 1.0}
        path.write_text(
            "\n" + json.dumps(good) + "\nnot json{{\n"
            + json.dumps({"type": "other"}) + "\n"
        )
        events = read_events(path)
        assert len(events) == 1 and events[0]["name"] == "batch"

    def test_export_after_close_is_a_silent_no_op(self, tmp_path):
        exporter = JsonLinesExporter(tmp_path / "trace.jsonl")
        exporter.close()
        exporter.export({"type": "span"})
        assert exporter.events_written == 0


class TestRingExporter:
    def test_ring_is_bounded_and_reports_truncated_traces(self):
        ring = RingExporter(capacity=4)
        tracer = Tracer([ring])
        first = tracer.start_trace("batch")
        for _ in range(3):
            first.span("unit").finish()
        first.finish()  # 4 events: fills the ring exactly
        second = tracer.start_trace("batch")
        second.span("unit").finish()
        second.finish()  # evicts the first trace's oldest events
        assert len(ring.events()) == 4
        assert ring.events_seen == 6
        summaries = ring.traces()
        by_id = {s["trace"]: s for s in summaries}
        assert by_id[first.trace_id]["truncated"] is True
        assert by_id[second.trace_id]["truncated"] is False

    def test_traces_limit_keeps_the_newest(self):
        ring = RingExporter()
        tracer = Tracer([ring])
        ids = []
        for _ in range(3):
            trace = tracer.start_trace("batch")
            trace.finish()
            ids.append(trace.trace_id)
        assert [s["trace"] for s in ring.traces(limit=2)] == ids[-2:]

    def test_inflight_traces_are_not_reported(self):
        ring = RingExporter()
        tracer = Tracer([ring])
        trace = tracer.start_trace("batch")
        trace.span("drain").finish()  # root not finished yet
        assert ring.traces() == []

    @pytest.mark.parametrize("limit, kept", [(0, 0), (1, 1), (3, 3), (5, 3), (None, 3)])
    def test_traces_limit_counts_complete_traces(self, limit, kept):
        ring = RingExporter()
        tracer = Tracer([ring])
        ids = []
        for _ in range(3):
            trace = tracer.start_trace("batch")
            trace.finish()
            ids.append(trace.trace_id)
        tracer.start_trace("batch").span("drain").finish()  # in flight
        summaries = ring.traces(limit=limit)
        assert [s["trace"] for s in summaries] == ids[len(ids) - kept:]

    def test_negative_traces_limit_is_refused(self):
        with pytest.raises(ValueError, match="must not be negative"):
            RingExporter().traces(limit=-1)

    def test_capacity_below_one_still_keeps_the_newest_event(self):
        ring = RingExporter(capacity=0)
        ring.export({"type": "span", "span": 1})
        ring.export({"type": "span", "span": 2})
        assert ring.events() == ({"type": "span", "span": 2},)
        assert ring.events_seen == 2


class TestVerifier:
    def _trace_events(
        self, trace_id="t1", names=("drain", "prepare", "apply", "commit"), status="ok"
    ):
        events = []
        for index, name in enumerate(names, start=2):
            events.append(
                {"type": "span", "trace": trace_id, "span": index, "parent": 1,
                 "name": name, "start": float(index), "end": float(index) + 0.5,
                 "thread": "main", "status": "ok", "attrs": {}}
            )
        events.append(
            {"type": "span", "trace": trace_id, "span": 1, "parent": None,
             "name": "batch", "start": 1.0, "end": 99.0, "thread": "main",
             "status": status, "attrs": {"spans": len(names) + 1}}
        )
        return events

    def test_complete_tree_verifies_clean(self):
        assert verify_batch_traces(self._trace_events()) == []

    def test_missing_required_seam_is_flagged(self):
        events = self._trace_events(names=("drain", "prepare", "apply"))
        problems = verify_batch_traces(events)
        assert any("missing 'commit'" in p for p in problems)

    def test_a_failed_batch_needs_no_commit(self):
        # A batch whose pass raised commits nothing: its failed root
        # excuses the missing commit span, and nothing else.
        events = self._trace_events(names=("drain", "prepare", "apply"), status="error")
        assert verify_batch_traces(events) == []
        events = self._trace_events(names=("drain", "apply"), status="error")
        assert any("missing 'prepare'" in p for p in verify_batch_traces(events))

    def test_missing_drain_tolerated_only_when_not_required(self):
        events = self._trace_events(names=("prepare", "apply", "commit"))
        assert any(
            "missing 'drain'" in p for p in verify_batch_traces(events)
        )
        assert verify_batch_traces(events, require_drain=False) == []

    def test_orphan_span_is_flagged(self):
        events = self._trace_events()
        events[0]["parent"] = 77
        problems = verify_batch_traces(events)
        assert any("unknown parent 77" in p for p in problems)

    def test_truncated_trace_is_flagged_via_span_count(self):
        events = self._trace_events()
        events = [e for e in events if e["name"] != "apply"]
        problems = verify_batch_traces(events)
        assert any("expected 5 spans, found 4" in p for p in problems)

    def test_counter_reconciliation_is_exact(self):
        events = self._trace_events()
        events[2]["attrs"] = {"solver_calls": 4, "derivation_attempts": 7}
        expected = {"solver_calls": 4, "derivation_attempts": 7, "shard_checkouts": 0}
        assert verify_batch_traces(events, expected_totals=expected) == []
        off_by_one = dict(expected, solver_calls=5)
        problems = verify_batch_traces(events, expected_totals=off_by_one)
        assert any("does not reconcile" in p for p in problems)

    def test_root_attrs_do_not_double_count(self):
        events = self._trace_events()
        events[3]["attrs"] = {"solver_calls": 4}
        root = next(e for e in events if e["parent"] is None)
        root["attrs"]["solver_calls"] = 4  # the convenience total
        view = group_traces(events)[0]
        assert view.counter_totals()["solver_calls"] == 4

    def test_no_traces_is_a_problem(self):
        assert verify_batch_traces([]) == ["no traces found"]


class TestRendering:
    def test_waterfall_and_top_spans_render(self):
        ring = RingExporter()
        tracer = Tracer([ring])
        trace = tracer.start_trace("batch")
        apply_span = trace.span("apply")
        trace.span("unit", parent=apply_span).set(solver_calls=2).finish()
        apply_span.finish()
        trace.finish()
        view = group_traces(list(ring.events()))[0]
        text = render_waterfall(view)
        assert "batch" in text and "apply" in text
        assert "  unit" in text  # children indent under their parent
        top = render_top_spans(list(ring.events()), k=2)
        assert "apply" in top and "solver_calls=2" in top


class TestObservabilityBundle:
    def test_disabled_bundle_is_inert(self):
        obs = Observability.disabled()
        assert obs.enabled is False
        # The no-op trace: spans open, fill, fail and finish into nothing.
        trace = obs.start_trace()
        assert trace is NULL_TRACE and trace.trace_id == "-"
        with trace.span("unit", parent=trace.root) as span:
            assert span.set(solver_calls=3).fail("boom") is span
        trace.record_span("checkpoint", 0.0, 1.0, watermark=1)
        trace.finish()
        assert obs.note_slow_batch(10_000.0) is False
        obs.close()

    def test_enabled_bundle_traces_and_counts(self):
        obs = Observability.enabled_with(slow_batch_seconds=0.5)
        assert obs.enabled and obs.tracer is not None
        trace = obs.start_trace()
        trace.finish()
        assert len(obs.ring.events()) == 1
        assert obs.note_slow_batch(0.7, applied=3) is True
        assert obs.note_slow_batch(0.1) is False
        assert obs.metrics.counter_value("repro_slow_batches_total") == 1

    def test_from_env_parses_the_repro_obs_family(self, tmp_path):
        assert Observability.from_env({}).enabled is False
        assert Observability.from_env({"REPRO_OBS": "0"}).enabled is False
        on = Observability.from_env({"REPRO_OBS": "1"})
        assert on.enabled and on.file_exporter is None
        path = tmp_path / "trace.jsonl"
        with_file = Observability.from_env(
            {"REPRO_OBS_TRACE_PATH": str(path), "REPRO_OBS_SLOW_BATCH_MS": "250"}
        )
        assert with_file.tracer is not None
        assert with_file.file_exporter is not None
        assert with_file.slow_batch_seconds == 0.25
        with_file.close()

    def test_from_env_warns_on_a_malformed_slow_batch_threshold(self):
        with pytest.warns(RuntimeWarning, match="REPRO_OBS_SLOW_BATCH_MS='250ms'"):
            obs = Observability.from_env(
                {"REPRO_OBS": "1", "REPRO_OBS_SLOW_BATCH_MS": "250ms"}
            )
        assert obs.slow_batch_seconds == 1.0
