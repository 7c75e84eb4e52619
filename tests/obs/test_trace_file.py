"""The PR's acceptance criterion, end to end.

A mixed serve workload with ``REPRO_OBS=1`` + a trace path produces a
JSON-lines trace file in which every applied batch has a complete
drain -> commit span tree whose per-span counter deltas reconcile exactly
with the scheduler's ``StreamStats`` totals -- and ``repro trace`` renders
it.  The durable variant additionally carries the ``journal`` span.
"""

from __future__ import annotations

import asyncio
import io

import pytest

from repro.cli import main as cli_main
from repro.constraints import ConstraintSolver
from repro.datalog import parse_constrained_atom, parse_program
from repro.maintenance import DeletionRequest, InsertionRequest
from repro.obs import (
    COUNTER_ATTRS,
    Observability,
    group_traces,
    read_events,
    verify_batch_traces,
)
from repro.persist import open_scheduler
from repro.serve import MediatorService, ServeOptions
from repro.stream import StreamScheduler

RULES = """
left(X) <- X = 1.
right(X) <- X = 11.
mid(X) <- left(X).
top(X) <- mid(X).
other(X) <- right(X).
"""

UNIVERSE = tuple(range(0, 40))


def run_cli(*argv: str):
    stream = io.StringIO()
    code = cli_main(list(argv), stream=stream)
    return code, stream.getvalue()


async def mixed_workload(service: MediatorService):
    """Inserts and deletions across both towers, reads interleaved."""
    for value in (21, 22):
        await service.submit(
            InsertionRequest(parse_constrained_atom(f"left(X) <- X = {value}"))
        )
        await service.submit(
            InsertionRequest(parse_constrained_atom(f"right(X) <- X = {value}"))
        )
        await service.query("top", UNIVERSE)
        await service.drained()
    await service.submit(
        DeletionRequest(parse_constrained_atom("left(X) <- X = 21"))
    )
    await service.query("other", UNIVERSE)
    await service.drained()


def expected_totals(scheduler):
    return {
        attr: sum(getattr(batch, attr) for batch in scheduler.batches)
        for attr in COUNTER_ATTRS
    }


class TestServeTraceFile:
    def test_repro_obs_env_produces_a_verifiable_trace_file(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        obs = Observability.from_env(
            {"REPRO_OBS": "1", "REPRO_OBS_TRACE_PATH": str(trace_path)}
        )
        scheduler = StreamScheduler(
            parse_program(RULES),
            ConstraintSolver(),
            obs=obs,
        )

        async def main():
            async with MediatorService(scheduler, ServeOptions()) as service:
                await mixed_workload(service)
                return service.stats()

        stats = asyncio.run(main())
        obs.close()
        assert stats["batch_errors"] == 0

        events = read_events(trace_path)
        problems = verify_batch_traces(
            events,
            require_drain=True,
            expected_totals=expected_totals(scheduler),
        )
        assert problems == []
        views = group_traces(events)
        assert len(views) == len(scheduler.batches) >= 1
        for view in views:
            names = set(view.names())
            assert {"batch", "drain", "prepare", "apply", "commit"} <= names

    def test_durable_serve_traces_carry_the_journal_span(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        obs = Observability.enabled_with(trace_path=str(trace_path))
        scheduler = open_scheduler(
            tmp_path / "data", program=parse_program(RULES), obs=obs
        )

        async def main():
            service = MediatorService(
                scheduler, ServeOptions(checkpoint_on_stop=False)
            )
            async with service:
                await mixed_workload(service)

        asyncio.run(main())
        obs.close()

        events = read_events(trace_path)
        assert verify_batch_traces(
            events,
            require_drain=True,
            expected_totals=expected_totals(scheduler),
        ) == []
        for view in group_traces(events):
            (journal,) = view.find("journal")
            assert journal["attrs"]["records"] >= 1


class TestTraceCli:
    def _write_trace(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        obs = Observability.enabled_with(trace_path=str(trace_path))
        scheduler = StreamScheduler(
            parse_program(RULES), ConstraintSolver(), obs=obs
        )
        for value in (21, 22):
            scheduler.submit(
                InsertionRequest(
                    parse_constrained_atom(f"left(X) <- X = {value}")
                )
            )
            scheduler.flush()
        obs.close()
        return trace_path

    def test_repro_trace_renders_waterfalls_and_top_spans(self, tmp_path):
        trace_path = self._write_trace(tmp_path)
        code, output = run_cli("trace", str(trace_path))
        assert code == 0
        assert "batch" in output and "drain" in output and "commit" in output
        assert "top 10 slowest spans:" in output
        assert "2 traces (2 complete)" in output

    def test_repro_trace_check_passes_on_a_clean_file(self, tmp_path):
        trace_path = self._write_trace(tmp_path)
        code, output = run_cli("trace", str(trace_path), "--check")
        assert code == 0
        assert "problem:" not in output

    def test_repro_trace_check_fails_on_a_truncated_file(self, tmp_path):
        trace_path = self._write_trace(tmp_path)
        lines = trace_path.read_text().strip().splitlines()
        trace_path.write_text("\n".join(lines[:-2]) + "\n")  # drop span events
        code, output = run_cli("trace", str(trace_path), "--check")
        assert code == 1
        assert "problem:" in output

    def test_repro_trace_limit_shows_only_the_newest(self, tmp_path):
        trace_path = self._write_trace(tmp_path)
        code, output = run_cli("trace", str(trace_path), "--limit", "1")
        assert code == 0
        assert output.count(" batch ") == 1  # one waterfall header

    def test_repro_trace_limit_zero_shows_no_waterfall(self, tmp_path):
        trace_path = self._write_trace(tmp_path)
        code, output = run_cli("trace", str(trace_path), "--limit", "0")
        assert code == 0
        assert output.count(" batch ") == 0
        assert "2 traces (2 complete)" in output

    def test_repro_trace_negative_limit_is_a_usage_error(self, tmp_path, capsys):
        trace_path = self._write_trace(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            run_cli("trace", str(trace_path), "--limit", "-1")
        assert exit_info.value.code == 2
        assert "argument --limit" in capsys.readouterr().err

    def test_repro_trace_on_an_empty_file_exits_one(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, output = run_cli("trace", str(empty))
        assert code == 1
        assert "no trace events" in output


class TestStatsCli:
    def test_repro_stats_reports_the_data_dir_summary(self, tmp_path):
        data_dir = tmp_path / "data"
        scheduler = open_scheduler(data_dir, program=parse_program(RULES))
        scheduler.submit(
            InsertionRequest(parse_constrained_atom("left(X) <- X = 21"))
        )
        scheduler.flush()
        scheduler.checkpoint()
        code, output = run_cli("stats", "--data-dir", str(data_dir))
        assert code == 0
        assert '"snapshot_id": "00000001.json"' in output
        assert '"wal_segments"' in output
        assert '"txn_watermark": 1' in output
