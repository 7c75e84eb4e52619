"""Tests for the live operator surface: router ops, error ring, stats."""

from __future__ import annotations

import asyncio

import pytest

from repro.constraints import ConstraintSolver
from repro.datalog import parse_constrained_atom, parse_program
from repro.errors import MediatorError
from repro.maintenance import InsertionRequest
from repro.obs import Observability
from repro.persist import open_scheduler
from repro.serve import MediatorService, ServeOptions
from repro.serve.routing import RequestRouter
from repro.stream import StreamOptions, StreamScheduler

RULES = """
b(X) <- X = 1.
c(X) <- b(X).
"""

UNIVERSE = tuple(range(0, 40))


def insertion(text: str) -> InsertionRequest:
    return InsertionRequest(parse_constrained_atom(text))


def make_service(obs=None, **serve_options) -> MediatorService:
    scheduler = StreamScheduler(
        parse_program(RULES), ConstraintSolver(), obs=obs
    )
    return MediatorService(scheduler, ServeOptions(**serve_options))


class TestMetricsOp:
    def test_json_format_reports_disabled_registry(self):
        async def main():
            async with make_service() as service:
                return await RequestRouter(service).dispatch({"op": "metrics"})

        reply = asyncio.run(main())
        assert reply["ok"] is True
        assert reply["enabled"] is False
        assert reply["metrics"] == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_json_format_reports_live_counters(self):
        async def main():
            service = make_service(obs=Observability.enabled_with())
            async with service:
                await service.submit(insertion("b(X) <- X = 7"))
                await service.drained()
                return await RequestRouter(service).dispatch({"op": "metrics"})

        reply = asyncio.run(main())
        assert reply["enabled"] is True
        counters = reply["metrics"]["counters"]
        assert counters["repro_batches_total"] == {"_": 1}
        assert "repro_batch_seconds" in reply["metrics"]["histograms"]

    def test_prometheus_format_returns_text_exposition(self):
        async def main():
            service = make_service(obs=Observability.enabled_with())
            async with service:
                await service.submit(insertion("b(X) <- X = 7"))
                await service.drained()
                return await RequestRouter(service).dispatch(
                    {"op": "metrics", "format": "prometheus"}
                )

        reply = asyncio.run(main())
        assert reply["ok"] is True
        assert "# TYPE repro_batches_total counter" in reply["exposition"]

    def test_unknown_format_is_an_error(self):
        async def main():
            async with make_service() as service:
                return await RequestRouter(service).dispatch(
                    {"op": "metrics", "format": "xml"}
                )

        reply = asyncio.run(main())
        assert reply["ok"] is False and "unknown metrics format" in reply["error"]


class TestTraceOp:
    def test_disabled_tracing_reports_how_to_enable(self):
        async def main():
            async with make_service() as service:
                return await RequestRouter(service).dispatch({"op": "trace"})

        reply = asyncio.run(main())
        assert reply["ok"] is True and reply["enabled"] is False
        assert reply["traces"] == []
        assert "REPRO_OBS" in reply["note"]

    def test_live_ring_returns_batch_timelines(self):
        async def main():
            service = make_service(obs=Observability.enabled_with())
            async with service:
                for value in (7, 8):
                    await service.submit(insertion(f"b(X) <- X = {value}"))
                    await service.drained()
                router = RequestRouter(service)
                return (
                    await router.dispatch({"op": "trace"}),
                    await router.dispatch({"op": "trace", "limit": 1}),
                )

        full, limited = asyncio.run(main())
        assert full["enabled"] is True
        assert len(full["traces"]) == 2
        names = {span["name"] for span in full["traces"][0]["spans"]}
        assert {"batch", "drain", "prepare", "apply", "commit"} <= names
        assert len(limited["traces"]) == 1
        assert limited["traces"][0]["trace"] == full["traces"][-1]["trace"]

    def test_limit_zero_returns_no_traces_and_a_negative_one_is_refused(self):
        async def main():
            service = make_service(obs=Observability.enabled_with())
            async with service:
                for value in (7, 8, 9):
                    await service.submit(insertion(f"b(X) <- X = {value}"))
                    await service.drained()
                router = RequestRouter(service)
                return [
                    await router.dispatch({"op": "trace", "limit": limit})
                    for limit in (3, 0, -1)
                ]

        three, zero, negative = asyncio.run(main())
        assert len(three["traces"]) == 3
        assert zero["ok"] is True and zero["traces"] == []
        assert negative["ok"] is False
        assert negative["error"].startswith("bad request: ")


    @pytest.mark.parametrize("limit", [2.7, True, "2"])
    def test_a_limit_that_is_not_an_integer_is_refused(self, limit):
        async def main():
            service = make_service(obs=Observability.enabled_with())
            async with service:
                for value in (7, 8, 9):
                    await service.submit(insertion(f"b(X) <- X = {value}"))
                    await service.drained()
                return await RequestRouter(service).dispatch(
                    {"op": "trace", "limit": limit}
                )

        reply = asyncio.run(main())
        assert reply["ok"] is False
        assert reply["error"].startswith("bad request: ")
        assert "traces" not in reply


class TestNoticeOp:
    @pytest.mark.parametrize("source", [None, 5, "", ["faces"]])
    def test_a_source_that_is_not_a_non_empty_string_is_refused(self, source):
        async def main():
            async with make_service() as service:
                reply = await RequestRouter(service).dispatch(
                    {"op": "notice", "source": source}
                )
                await service.drained()
                return reply, service.scheduler.batches

        reply, batches = asyncio.run(main())
        assert reply["ok"] is False
        assert reply["error"].startswith("bad request: ")
        assert batches == ()  # no notice reached the update log


class TestQueryOp:
    def test_a_predicate_that_is_not_a_string_is_a_bad_request(self):
        async def main():
            async with make_service() as service:
                router = RequestRouter(service)
                return (
                    await router.dispatch({"op": "query", "predicate": 5}),
                    await router.dispatch({"op": "query", "predicate": "c"}),
                )

        bad, good = asyncio.run(main())
        assert bad["ok"] is False
        assert bad["error"].startswith("bad request: ")
        assert good["ok"] is True and good["instances"] == [[1]]


class TestBoundedErrorRing:
    def test_error_history_must_be_positive(self):
        with pytest.raises(MediatorError, match="error_history"):
            ServeOptions(error_history=0)

    def test_ring_keeps_newest_and_counts_dropped(self):
        service = make_service(error_history=2)
        for index in range(5):
            service._record_error(f"boom {index}")
        assert service.errors == ("boom 3", "boom 4")
        assert service.errors_dropped == 3
        stats = service.stats()
        assert stats["batch_errors"] == 5
        assert stats["errors_dropped"] == 3

    def test_batch_failures_flow_through_the_bounded_ring(self, monkeypatch):
        async def main():
            service = make_service(error_history=2, max_batch=1)
            async with service:
                scheduler = service.scheduler

                def exploding_apply(prepared):
                    raise RuntimeError("apply exploded")

                monkeypatch.setattr(
                    scheduler, "apply_prepared", exploding_apply
                )
                for value in (7, 8, 9):
                    await service.submit(insertion(f"b(X) <- X = {value}"))
                await service.drained()
                return service.errors, service.errors_dropped, service.stats()

        errors, dropped, stats = asyncio.run(main())
        assert stats["batch_errors"] == 3
        assert len(errors) == 2 and dropped == 1
        assert all("apply exploded" in error for error in errors)

    def test_errors_increment_the_serve_error_counter(self):
        service = make_service(obs=Observability.enabled_with())
        service._record_error("boom")
        assert (
            service.scheduler.obs.metrics.counter_value(
                "repro_serve_errors_total"
            )
            == 1
        )


class TestDurableStats:
    def test_stats_reports_wal_segments_and_active_snapshot(self, tmp_path):
        async def main():
            scheduler = open_scheduler(
                tmp_path, program=parse_program(RULES), options=StreamOptions()
            )
            service = MediatorService(
                scheduler, ServeOptions(checkpoint_on_stop=False)
            )
            async with service:
                await service.submit(insertion("b(X) <- X = 7"))
                await service.drained()
                before = service.stats()
            scheduler.checkpoint()
            return before, service.stats()

        before, after = asyncio.run(main())
        assert before["wal_segments"] >= 1
        assert before["snapshot_id"] is None  # nothing checkpointed yet
        assert after["snapshot_id"] == "00000001.json"
        assert after["txn_watermark"] == before["txn_high"]
