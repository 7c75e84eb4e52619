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
import json
import os
import sys
from pathlib import Path

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


def two_towers():
    from repro.datalog import parse_program

    return parse_program(RULES + "\nc(X) <- X = 1.\nctop(X) <- c(X).")


def manual_options():
    from repro.persist import DurabilityOptions

    return DurabilityOptions(checkpoint_wal_bytes=1 << 30)


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

    @pytest.mark.parametrize("old", (1, 2))
    def test_an_older_format_directory_is_refused(self, tmp_path, old):
        # Format 1 filed every inserted fact under the one leaf ``<0>``, and
        # format 2 inlined the programs in every manifest; a directory
        # written then is refused, naming both versions, never half read.
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
        assert stored["format"] == 3
        manifest.write_text(json.dumps({**stored, "format": old}))
        with pytest.raises(CodecError, match=f"format version {old}; this codec reads 3"):
            Mediator.open(data_dir)

    def test_streaming_rejects_options_on_a_durable_mediator(self, tmp_path):
        from repro.stream import StreamOptions

        mediator = Mediator.open(tmp_path / "data", rules=RULES)
        with pytest.raises(MediatorError):
            mediator.streaming(options=StreamOptions())

    def test_open_empty_directory_without_rules_is_an_error(self, tmp_path):
        with pytest.raises(MediatorError):
            Mediator.open(tmp_path / "empty")


def delta_changes(data_dir, info):
    """What the delta checkpoint *info* wrote: (removed, rows)."""
    from repro.persist import codec

    manifest = json.loads((data_dir / "snapshots" / info.manifest).read_bytes())
    return codec.decode_delta((data_dir / "shards" / f"{manifest['chain'][-1]}.json").read_bytes())


class TestCheckpointsWriteTheChange:
    def test_a_second_checkpoint_writes_a_delta_of_the_changed_shards(self, tmp_path):
        # Two towers; the update touches one.  The second checkpoint writes
        # one delta holding the changed shards' new rows and nothing of the
        # other tower, the base stays the first checkpoint's, and a reopen
        # replays the WAL tail after it.
        from repro.constraints import ConstraintSolver
        from repro.persist import open_scheduler
        from repro.stream import StreamScheduler

        program = two_towers()
        updates = [
            InsertionRequest(parse_constrained_atom(f"b(X) <- X = {value}"))
            for value in (7, 8)
        ]
        data_dir = tmp_path / "data"
        writer = open_scheduler(data_dir, program, durability_options=manual_options())
        stats = writer.durability.stats
        first = writer.checkpoint()
        assert (first.chain, stats.shards_written, stats.shards_reused) == (0, 4, 0)
        shards = {p: writer.view.shard_for(p) for p in writer.view.predicates()}

        writer.submit(updates[0])
        assert writer.flush().ok
        changed = {
            p for p, shard in shards.items() if writer.view.shard_for(p) is not shard
        }
        assert changed == {"b", "top"}
        second = writer.checkpoint()
        assert (second.chain, second.shards_written, second.shards_reused) == (1, 2, 2)
        assert (stats.shards_written, stats.shards_reused) == (6, 2)
        removed, rows = delta_changes(data_dir, second)
        assert removed == {"b": [], "top": []}
        assert sorted(entry.predicate for entry, _ in rows) == ["b", "top"]
        manifests = [
            json.loads((data_dir / "snapshots" / info.manifest).read_bytes())
            for info in (first, second)
        ]
        assert manifests[0]["shards"] == manifests[1]["shards"]

        writer.submit(updates[1])  # journaled only: the WAL tail
        assert writer.flush().ok
        recovered = open_scheduler(data_dir, program, durability_options=manual_options())
        assert recovered._replayed_batches >= 1
        recomputed = StreamScheduler(program, ConstraintSolver())
        for update in updates:
            assert recomputed.apply_batch([update]).ok
        assert view_keys(recovered.view) == view_keys(writer.view)
        assert view_keys(recovered.view) == view_keys(recomputed.view)


class TestCheckpointsEncodeTheChange:
    """A checkpoint encodes the entries and clauses that are new since the
    last one; everything else is spliced from remembered bytes."""

    def test_a_checkpoint_with_no_change_encodes_nothing(self, tmp_path):
        from repro.persist import open_scheduler

        writer = open_scheduler(tmp_path / "data", two_towers(), durability_options=manual_options())
        first = writer.checkpoint()
        assert first.entries_encoded == len(writer.view)
        assert first.clauses_encoded > 0
        second = writer.checkpoint()
        assert (second.entries_encoded, second.clauses_encoded) == (0, 0)
        assert (second.shards_written, second.shards_reused, second.chain) == (0, 4, 0)
        # No data file and no program file: the manifest is all it writes.
        manifest = tmp_path / "data" / "snapshots" / second.manifest
        assert second.bytes_written == len(manifest.read_bytes())

    def test_one_deletion_encodes_only_what_it_made(self, tmp_path):
        from repro.maintenance import DeletionRequest
        from repro.persist import open_scheduler

        writer = open_scheduler(tmp_path / "data", two_towers(), durability_options=manual_options())
        writer.submit(InsertionRequest(parse_constrained_atom("b(X) <- X >= 4 & X <= 8")))
        assert writer.flush().ok
        assert writer.checkpoint() is not None
        # Keep the checkpointed objects alive: their ids stay theirs.
        before = writer.view
        programs = (writer.program, writer.effective_program, writer._deletion_program)

        # Narrows the inserted fact and what it derives: new entry objects.
        writer.submit(DeletionRequest(parse_constrained_atom("b(X) <- X = 6")))
        assert writer.flush().ok
        info = writer.checkpoint()

        after = writer.view
        new_entries = 0
        for predicate in after.predicates():
            if after.shard_for(predicate) is before.shard_for(predicate):
                continue
            old_rows = {(id(entry), seq) for entry, seq in before.export_shard_rows(predicate)}
            new_entries += sum(
                (id(entry), seq) not in old_rows
                for entry, seq in after.export_shard_rows(predicate)
            )
        old_clauses = {id(clause) for program in programs for clause in program.clauses}
        new_clauses = {
            id(clause)
            for program in (writer.effective_program, writer._deletion_program)
            for clause in program.clauses
        } - old_clauses
        assert new_clauses and new_entries
        assert info.entries_encoded == new_entries
        assert info.clauses_encoded == len(new_clauses)
        # The delta holds exactly the rows that are new.
        assert len(delta_changes(tmp_path / "data", info)[1]) == new_entries

    def test_an_entry_added_again_is_encoded_again(self, tmp_path):
        # Same entry object, new sequence number: its remembered bytes are
        # stale, and the delta drops the old number and appends the new one.
        from repro.constraints import ConstraintSolver
        from repro.persist.snapshot import SnapshotStore
        from repro.stream import StreamScheduler

        program = two_towers()
        store = SnapshotStore(tmp_path / "data")

        def checkpoint(view):
            return store.write_checkpoint(
                view, program=program, report_digest="", effective_program=program,
                deletion_program=program, watermark=0, txn_high=0,
            )

        view = StreamScheduler(program, ConstraintSolver()).view
        assert checkpoint(view).entries_encoded == len(view)
        again = view.copy()
        entry = next(iter(again.shard_for("b")))
        old_seq = dict(view.export_shard_rows("b"))[entry]
        assert again.remove(entry) and again.add(entry)
        info = checkpoint(again)
        assert (info.entries_encoded, info.shards_written, info.chain) == (1, 1, 1)
        removed, rows = delta_changes(tmp_path / "data", info)
        assert removed == {"b": [old_seq]}
        assert [(row.key(), seq) for row, seq in rows] == [(entry.key(), again.next_sequence_number() - 1)]

    @pytest.mark.parametrize("seed", range(5))
    def test_base_files_equal_a_fresh_encoding_and_the_chain_the_live_rows(self, tmp_path, seed):
        # One seed per differential workload family.
        from repro.persist import codec, open_scheduler
        from repro.persist.snapshot import SnapshotStore

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
        from integration.test_differential import build_spec, build_stream

        spec = build_spec(seed)
        payloads = [request for _, request in build_stream(spec, seed)]
        data_dir = tmp_path / "data"
        writer = open_scheduler(data_dir, spec.program, durability_options=manual_options())
        kinds = set()
        for start in range(0, len(payloads), 2):
            for payload in payloads[start : start + 2]:
                writer.submit(payload)
            assert writer.flush().ok
            info = writer.checkpoint()
            kinds.add(info.chain > 0)
            manifest = (data_dir / "snapshots" / info.manifest).read_bytes()
            assert manifest == codec.canonical_bytes(json.loads(manifest))
            if info.chain == 0:
                for predicate, meta in json.loads(manifest)["shards"].items():
                    stored = (data_dir / "shards" / meta["file"]).read_bytes()
                    fresh = codec.encode_shard(predicate, writer.view.export_shard_rows(predicate))
                    assert stored == fresh, predicate
            loaded = SnapshotStore(data_dir).load_current().view
            for predicate in set(writer.view.predicates()) | set(loaded.predicates()):
                live = [(entry.key(), seq) for entry, seq in writer.view.export_shard_rows(predicate)]
                got = [(entry.key(), seq) for entry, seq in loaded.export_shard_rows(predicate)]
                assert got == live, predicate
            assert loaded.next_sequence_number() == writer.view.next_sequence_number()
        assert kinds == {False, True}
        reopened = open_scheduler(data_dir, spec.program, durability_options=manual_options())
        assert reopened._replayed_batches == 0
        assert view_keys(reopened.view) == view_keys(writer.view)


class TestCrashLeftovers:
    def test_open_removes_temporary_files(self, tmp_path):
        from repro.persist import open_scheduler

        data_dir = tmp_path / "data"
        writer = open_scheduler(data_dir, two_towers(), durability_options=manual_options())
        writer.submit(InsertionRequest(parse_constrained_atom("b(X) <- X = 7")))
        assert writer.flush().ok
        assert writer.checkpoint() is not None
        planted = [
            data_dir / "shards" / "x.json.tmp",
            data_dir / "snapshots" / "00000009.json.tmp",
            data_dir / "CURRENT.tmp",
        ]
        for path in planted:
            path.write_bytes(b"half a write")
        reopened = open_scheduler(data_dir, two_towers(), durability_options=manual_options())
        assert [path for path in planted if path.exists()] == []
        assert view_keys(reopened.view) == view_keys(writer.view)


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
class TestDirectoriesAreFsynced:
    """A rename or a new file is durable only once its directory is."""

    @staticmethod
    def record(monkeypatch):
        events = []
        real_fsync, real_replace, real_unlink = os.fsync, os.replace, os.unlink

        def fsync(fd):
            events.append(("fsync", os.readlink(f"/proc/self/fd/{fd}")))
            return real_fsync(fd)

        def replace(src, dst, *args, **kwargs):
            events.append(("replace", str(Path(dst).resolve())))
            return real_replace(src, dst, *args, **kwargs)

        def unlink(path, *args, **kwargs):
            events.append(("unlink", str(Path(path).resolve())))
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "unlink", unlink)
        return events

    def test_current_is_durable_before_the_wal_is_pruned(self, tmp_path, monkeypatch):
        from repro.persist import open_scheduler

        data_dir = (tmp_path / "data").resolve()
        writer = open_scheduler(data_dir, two_towers(), durability_options=manual_options())
        writer.submit(InsertionRequest(parse_constrained_atom("b(X) <- X = 7")))
        assert writer.flush().ok
        events = self.record(monkeypatch)
        assert writer.checkpoint() is not None
        swing = events.index(("replace", str(data_dir / "CURRENT")))
        synced = events.index(("fsync", str(data_dir)), swing)
        pruned = [
            index
            for index, (kind, path) in enumerate(events)
            if kind == "unlink" and Path(path).parent == data_dir / "wal"
        ]
        assert pruned and synced < pruned[0]
        # The shard files and the manifest are named durably as well.
        assert ("fsync", str(data_dir / "shards")) in events[:swing]
        assert ("fsync", str(data_dir / "snapshots")) in events[:swing]

    def test_a_new_segment_is_durable_when_append_returns(self, tmp_path, monkeypatch):
        from repro.persist.wal import WriteAheadLog
        from repro.stream.log import Transaction

        root = (tmp_path / "wal").resolve()
        wal = WriteAheadLog(root)
        request = InsertionRequest(parse_constrained_atom("b(X) <- X = 7"))
        events = self.record(monkeypatch)
        wal.append((Transaction(1, 0.0, request),))
        (segment,) = wal.segments()
        assert events == [("fsync", str(segment)), ("fsync", str(root))]
        events.clear()
        wal.append((Transaction(2, 0.0, request),))
        assert events == [("fsync", str(segment))]  # not a new name


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
