"""The two user-facing recovery entry points: ``Mediator.open`` and
``repro serve --data-dir``.

The crash harness proves the durability layer's semantics; these tests
prove the doors into it -- a mediator opened over a data directory hands
out the recovered durable scheduler (program recoverable from the
manifest alone, transaction ids continuing above the persisted
high-water mark), and the CLI's serve command recovers, serves, and
checkpoints on exit.
"""

from __future__ import annotations

import io

import pytest

from repro.cli import main
from repro.datalog import parse_constrained_atom
from repro.errors import MediatorError
from repro.maintenance import InsertionRequest
from repro.mediator import Mediator

RULES = "\n".join(
    [
        "b(X) <- X = 1.",
        "b(X) <- X = 2.",
        "top(X) <- b(X).",
    ]
)

UNIVERSE = tuple(range(0, 32))


def view_keys(view):
    return sorted(str(entry.key()) for entry in view)


class TestMediatorOpen:
    def test_open_initialize_then_reopen_without_rules(self, tmp_path):
        data_dir = tmp_path / "data"

        first = Mediator.open(data_dir, rules=RULES)
        scheduler = first.streaming()
        txn = scheduler.submit(
            InsertionRequest(first.parse_update_atom("b(X) <- X = 7"))
        )
        assert scheduler.flush().ok
        assert scheduler.checkpoint() is not None
        reference = view_keys(scheduler.view)

        # Reopen with no rules: the program comes from the manifest.
        second = Mediator.open(data_dir)
        assert second.program == first.program
        recovered = second.streaming()
        assert view_keys(recovered.view) == reference
        # Fresh ids continue above the persisted high-water mark.
        next_txn = recovered.submit(
            InsertionRequest(second.parse_update_atom("b(X) <- X = 8"))
        )
        assert next_txn.txn_id == txn.txn_id + 1
        assert recovered.flush().ok
        assert recovered.query("top", UNIVERSE) == {
            (1,), (2,), (7,), (8,),
        }

    def test_a_format_1_directory_is_refused(self, tmp_path):
        # Format 1 filed every inserted fact under the one leaf ``<0>``; a
        # directory written then is refused, never opened with shared leaves.
        import json

        from repro.errors import CodecError

        data_dir = tmp_path / "data"
        scheduler = Mediator.open(data_dir, rules=RULES).streaming()
        scheduler.submit(
            InsertionRequest(parse_constrained_atom("b(X) <- X = 7"))
        )
        assert scheduler.flush().ok
        assert scheduler.checkpoint() is not None
        manifest = data_dir / "snapshots" / (data_dir / "CURRENT").read_text().strip()
        stored = json.loads(manifest.read_text())
        assert stored["format"] == 2
        manifest.write_text(json.dumps({**stored, "format": 1}))
        with pytest.raises(CodecError, match="format version 1"):
            Mediator.open(data_dir)

    def test_streaming_rejects_options_on_a_durable_mediator(self, tmp_path):
        from repro.stream import StreamOptions

        mediator = Mediator.open(tmp_path / "data", rules=RULES)
        with pytest.raises(MediatorError):
            mediator.streaming(options=StreamOptions())

    def test_open_empty_directory_without_rules_is_an_error(self, tmp_path):
        with pytest.raises(MediatorError):
            Mediator.open(tmp_path / "empty")


class TestCheckpointsWriteTheChange:
    def test_a_second_checkpoint_rewrites_only_the_changed_shards(self, tmp_path):
        # Two towers; the update touches one.  The other tower's shards are
        # the objects the first checkpoint wrote, so the second one reuses
        # their files, and a reopen replays the WAL tail after it.
        from repro.constraints import ConstraintSolver
        from repro.datalog import parse_program
        from repro.persist import DurabilityOptions, open_scheduler
        from repro.stream import StreamScheduler

        program = parse_program(RULES + "\nc(X) <- X = 1.\nctop(X) <- c(X).")
        manual = DurabilityOptions(checkpoint_wal_bytes=1 << 30)
        updates = [
            InsertionRequest(parse_constrained_atom(f"b(X) <- X = {value}"))
            for value in (7, 8)
        ]
        writer = open_scheduler(tmp_path / "data", program, durability_options=manual)
        stats = writer.durability.stats
        assert writer.checkpoint() is not None
        assert (stats.shards_written, stats.shards_reused) == (4, 0)
        shards = {p: writer.view.shard_for(p) for p in writer.view.predicates()}

        writer.submit(updates[0])
        assert writer.flush().ok
        changed = {
            p for p, shard in shards.items() if writer.view.shard_for(p) is not shard
        }
        assert changed == {"b", "top"}
        assert writer.checkpoint() is not None
        assert stats.shards_reused >= 1
        assert stats.shards_written == 4 + len(changed)

        writer.submit(updates[1])  # journaled only: the WAL tail
        assert writer.flush().ok
        recovered = open_scheduler(tmp_path / "data", program, durability_options=manual)
        assert recovered._replayed_batches >= 1
        recomputed = StreamScheduler(program, ConstraintSolver())
        for update in updates:
            assert recomputed.apply_batch([update]).ok
        assert view_keys(recovered.view) == view_keys(writer.view)
        assert view_keys(recovered.view) == view_keys(recomputed.view)


class TestCliServeDataDir:
    def test_serve_recovers_and_checkpoints_on_exit(self, tmp_path):
        rules_path = tmp_path / "rules.pl"
        rules_path.write_text(RULES + "\n", encoding="utf-8")
        data_dir = tmp_path / "data"

        def run_serve():
            stream = io.StringIO()
            code = main(
                [
                    "serve",
                    str(rules_path),
                    "--data-dir",
                    str(data_dir),
                    "--port",
                    "0",
                    "--duration",
                    "0.05",
                ],
                stream=stream,
            )
            return code, stream.getvalue()

        code, output = run_serve()
        assert code == 0
        assert f"recovered {data_dir}" in output
        # Stopping the service checkpointed the materialized view.
        assert (data_dir / "CURRENT").exists()

        code, output = run_serve()
        assert code == 0
        # The second life starts from the snapshot, not from nothing:
        # b=1, b=2 and the two derived top entries.
        assert "view has 4 entries" in output
