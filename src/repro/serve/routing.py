"""Request routing: wire-format dicts -> service operations -> reply dicts.

One request is one JSON object; one reply is one JSON object.  The router
is transport-agnostic (the TCP server feeds it JSON lines, tests feed it
dicts directly) and side-effect-free beyond the service calls it makes.

Operations::

    {"op": "query",  "predicate": "p", "universe": "0:10"}
    {"op": "insert", "atom": "b(X) <- X = 1"}
    {"op": "delete", "atom": "b(X) <- X = 6"}
    {"op": "notice", "source": "faces"}
    {"op": "flush"}          # await until the update log is fully applied
    {"op": "stats"}
    {"op": "metrics"}        # {"format": "prometheus"} for text exposition
    {"op": "trace", "limit": 5}   # recent batch traces from the live ring
    {"op": "ping"}

Every reply carries ``"ok"``; failures add ``"error"`` and never take the
connection down -- a malformed update must not interrupt the readers
sharing the service.
"""

from __future__ import annotations

from typing import Optional

from repro.cli import parse_universe
from repro.datalog.parser import parse_constrained_atom
from repro.errors import ReproError
from repro.maintenance.requests import DeletionRequest, InsertionRequest
from repro.serve.service import MediatorService
from repro.stream.log import ExternalChangeNotice


class RequestRouter:
    """Dispatch one request dict against a :class:`MediatorService`."""

    def __init__(self, service: MediatorService) -> None:
        self._service = service

    async def dispatch(self, request: object) -> dict:
        if not isinstance(request, dict):
            return {"ok": False, "error": f"request must be an object, got {type(request).__name__}"}
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            return {"ok": False, "error": f"unknown op: {op!r}"}
        try:
            return await handler(request)
        except ReproError as error:
            return {"ok": False, "error": str(error)}
        except (KeyError, TypeError, ValueError) as error:
            return {"ok": False, "error": f"bad request: {error}"}

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    async def _op_query(self, request: dict) -> dict:
        predicate = request["predicate"]
        if not isinstance(predicate, str):
            raise TypeError(f"predicate must be a string, got {predicate!r}")
        universe = parse_universe(self._optional_str(request, "universe"))
        instances = await self._service.query(predicate, universe)
        rows = sorted((list(values) for values in instances), key=repr)
        return {
            "ok": True,
            "predicate": predicate,
            "instances": rows,
            "count": len(rows),
        }

    async def _op_insert(self, request: dict) -> dict:
        atom = parse_constrained_atom(request["atom"])
        transaction = await self._service.submit(InsertionRequest(atom))
        return {"ok": True, "txn": transaction.txn_id}

    async def _op_delete(self, request: dict) -> dict:
        atom = parse_constrained_atom(request["atom"])
        transaction = await self._service.submit(DeletionRequest(atom))
        return {"ok": True, "txn": transaction.txn_id}

    async def _op_notice(self, request: dict) -> dict:
        source = request["source"]
        if not isinstance(source, str) or not source:
            raise TypeError(f"source must be a non-empty string, got {source!r}")
        notice = ExternalChangeNotice(source=source)
        transaction = await self._service.submit(notice)
        return {"ok": True, "txn": transaction.txn_id}

    async def _op_flush(self, request: dict) -> dict:
        await self._service.drained()
        return {"ok": True, **self._service.stats()}

    async def _op_stats(self, request: dict) -> dict:
        return {"ok": True, **self._service.stats()}

    async def _op_metrics(self, request: dict) -> dict:
        """The metrics registry, as JSON or Prometheus text exposition."""
        obs = self._service.obs
        # Sync the intern-table and read-path totals at scrape time so the
        # exposition is fresh even when no batch has run since they moved.
        obs.metrics.record_intern()
        obs.metrics.record_domains(self._service.scheduler.solver)
        fmt = self._optional_str(request, "format") or "json"
        if fmt == "prometheus":
            return {
                "ok": True,
                "enabled": obs.metrics.enabled,
                "exposition": obs.metrics.render_prometheus(),
            }
        if fmt != "json":
            return {"ok": False, "error": f"unknown metrics format: {fmt!r}"}
        return {
            "ok": True,
            "enabled": obs.metrics.enabled,
            "metrics": obs.metrics.as_dict(),
        }

    async def _op_trace(self, request: dict) -> dict:
        """Recent complete batch traces from the in-memory ring."""
        obs = self._service.obs
        if obs.ring is None:
            return {
                "ok": True,
                "enabled": False,
                "traces": [],
                "note": "tracing is disabled (set REPRO_OBS=1)",
            }
        limit = request.get("limit")
        if limit is not None and type(limit) is not int:  # a bool is no limit
            raise TypeError(f"limit must be an integer, got {limit!r}")
        return {
            "ok": True,
            "enabled": True,
            "traces": obs.ring.traces(limit=limit),
        }

    async def _op_ping(self, request: dict) -> dict:
        return {"ok": True, "pong": True}

    @staticmethod
    def _optional_str(request: dict, key: str) -> Optional[str]:
        value = request.get(key)
        if value is None:
            return None
        return str(value)
