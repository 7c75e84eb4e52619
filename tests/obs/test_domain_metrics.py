"""The read path's operator surface: per-domain call counters and the
instance-memo pair, mirrored by ``Metrics.record_domains``."""

from __future__ import annotations

import asyncio

from repro.constraints import ConstraintSolver
from repro.datalog import parse_constrained_atom
from repro.domains import Domain, DomainRegistry
from repro.mediator import Mediator
from repro.obs import NULL_METRICS, Metrics, Observability
from repro.serve import MediatorService
from repro.serve.routing import RequestRouter
from repro.stream import ExternalChangeNotice, StreamOptions, StreamScheduler

RULES = """
listed(X) <- in(X, book:names()).
plain(X) <- X = 1.
"""


def book_domain() -> Domain:
    book = Domain("book")
    book.register("names", lambda: {"ann", "bob"})
    return book


def read_twice():
    """A mediator whose two predicates were each read twice."""
    mediator = Mediator.from_rules(RULES, [book_domain()])
    view = mediator.materialize()
    for _ in range(2):
        assert view.query("listed") == {("ann",), ("bob",)}
        assert view.query("plain") == {(1,)}
    return mediator


class TestRecordDomains:
    def test_mirrors_call_counters_and_the_instance_memo_pair(self):
        mediator = read_twice()
        counters = mediator.registry.call_counters()["book"]
        assert counters["calls"] == counters["memo_hits"] + counters["executed"]
        assert counters["executed"] == 1 and counters["memo_hits"] > 0
        metrics = Metrics()
        metrics.record_domains(mediator.solver)
        assert (
            metrics.counter_value("repro_domains_calls_total", domain="book")
            == counters["calls"]
        )
        assert (
            metrics.counter_value("repro_domains_memo_hits_total", domain="book")
            == counters["memo_hits"]
        )
        # One search per entry, then one lookup for `listed` only: `plain`
        # names no source, so its second read is answered by the shard chunk
        # that remembered it, without a memo lookup.
        assert metrics.counter_value("repro_read_instance_memo_misses_total") == 2
        assert metrics.counter_value("repro_read_instance_memo_hits_total") == 1

    def test_an_uncached_registry_counts_calls_and_no_hits(self):
        registry = DomainRegistry([book_domain()])
        registry.evaluate_call("book", "names", ())
        registry.evaluate_call("book", "names", ())
        metrics = Metrics()
        metrics.record_domains(ConstraintSolver(registry))
        assert metrics.counter_value("repro_domains_calls_total", domain="book") == 2
        assert metrics.counter_value("repro_domains_memo_hits_total", domain="book") == 0

    def test_a_solver_without_a_registry_still_reports_the_memo_pair(self):
        solver = ConstraintSolver()
        atom = parse_constrained_atom("p(X) <- X = 1")
        assert atom.instances(solver) == atom.instances(solver) == {("p", (1,))}
        metrics = Metrics()
        metrics.record_domains(solver)
        counters = metrics.as_dict()["counters"]
        assert "repro_domains_calls_total" not in counters
        assert counters["repro_read_instance_memo_misses_total"] == {"_": 1}
        assert counters["repro_read_instance_memo_hits_total"] == {"_": 1}

    def test_null_metrics_is_a_no_op(self):
        NULL_METRICS.record_domains(read_twice().solver)
        assert NULL_METRICS.as_dict()["counters"] == {}

    def test_prometheus_exposition(self):
        mediator = read_twice()
        metrics = Metrics()
        metrics.record_domains(mediator.solver)
        calls = mediator.registry.call_counters()["book"]["calls"]
        text = metrics.render_prometheus()
        assert "# TYPE repro_domains_calls_total counter" in text
        assert f'repro_domains_calls_total{{domain="book"}} {calls}' in text
        assert "# TYPE repro_domains_memo_hits_total counter" in text
        assert "# TYPE repro_read_instance_memo_hits_total counter" in text
        # (1, not 2: `plain`'s second read is its chunk's, not the memo's.)
        assert "repro_read_instance_memo_hits_total 1" in text
        assert "repro_read_instance_memo_misses_total 2" in text


class TestRecordingPoints:
    def scheduler(self) -> StreamScheduler:
        mediator = Mediator.from_rules(RULES, [book_domain()])
        return StreamScheduler(
            mediator.program,
            mediator.solver,
            options=StreamOptions(max_workers=1),
            obs=Observability.enabled_with(),
        )

    def test_the_batch_epilogue_refreshes_the_series(self):
        scheduler = self.scheduler()
        scheduler.query("listed")
        scheduler.submit(ExternalChangeNotice("book"))
        assert scheduler.flush().ok
        metrics = scheduler.obs.metrics
        assert metrics.counter_value("repro_domains_calls_total", domain="book") > 0
        assert metrics.counter_value("repro_read_instance_memo_misses_total") == 1

    def test_a_metrics_scrape_refreshes_the_series(self):
        scheduler = self.scheduler()

        async def main():
            async with MediatorService(scheduler) as service:
                await service.query("listed")
                await service.query("listed")
                return await RequestRouter(service).dispatch({"op": "metrics"})

        counters = asyncio.run(main())["metrics"]["counters"]
        assert counters["repro_read_instance_memo_misses_total"] == {"_": 1}
        assert counters["repro_read_instance_memo_hits_total"] == {"_": 1}
        assert counters["repro_domains_calls_total"]["domain=book"] > 0
