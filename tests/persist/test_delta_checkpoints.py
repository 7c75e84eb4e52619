"""Delta checkpoints: a checkpoint after the base writes what changed.

A base writes every shard; each later checkpoint writes one delta file
(the sequence numbers a shard no longer holds, and its new rows) chained
to the base, and recovery replays the chain onto the base.  These tests
drive random shard histories through bases and deltas and check that a
reopen gives back the live rows in order, that one update costs one
small file whatever the view's size, and that the operator's stats reply
answers from memory what the directory says.
"""

from __future__ import annotations

import builtins
import json
import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.ast import Comparison
from repro.constraints.terms import Constant, Variable
from repro.datalog import parse_constrained_atom, parse_program
from repro.datalog.atoms import Atom
from repro.datalog.program import ConstrainedDatabase
from repro.datalog.support import Support
from repro.datalog.view import MaterializedView, ViewEntry
from repro.maintenance import InsertionRequest
from repro.persist import DurabilityOptions, open_scheduler
from repro.persist.snapshot import SnapshotStore
from repro.persist.wal import WriteAheadLog

MANUAL = DurabilityOptions(checkpoint_wal_bytes=1 << 30)
PROGRAM = ConstrainedDatabase([])
X = Variable("X")


def checkpoint(store, view):
    return store.write_checkpoint(
        view, program=PROGRAM, report_digest="", effective_program=PROGRAM,
        deletion_program=PROGRAM, watermark=0, txn_high=0,
    )


def rows_of(view):
    return {
        predicate: [(entry.key(), seq) for entry, seq in view.export_shard_rows(predicate)]
        for predicate in view.predicates()
    }


class History:
    """One random shard history over predicates ``p`` and ``q``."""

    def __init__(self) -> None:
        self.view = MaterializedView()
        self.fresh = 0
        self.removed = []
        for predicate, size in (("p", 24), ("q", 12)):
            for _ in range(size):
                self.add(predicate)

    def entry(self, predicate, support=None):
        self.fresh += 1
        if support is None:  # one support per entry: a support names one derivation
            support = Support(self.fresh)
        return ViewEntry(Atom(predicate, (X,)), Comparison(X, "=", Constant(self.fresh)), support)

    def live(self, predicate):
        return list(self.view.entries_for(predicate))

    def add(self, predicate):
        assert self.view.add(self.entry(predicate))

    def readd(self, pick):
        # The same entry object comes back under a new sequence number.
        if self.removed:
            assert self.view.add(self.removed.pop(pick % len(self.removed)))

    def remove(self, predicate, pick):
        live = self.live(predicate)
        if live:
            entry = live[pick % len(live)]
            assert self.view.remove(entry)
            self.removed.append(entry)

    def replace(self, predicate, pick):
        live = self.live(predicate)
        if live:
            old = live[pick % len(live)]
            assert self.view.replace(old, self.entry(predicate, old.support))

    def purge(self, predicate, pick):
        # Two removals in three: enough tombstones to compact the shard.
        for number, entry in enumerate(self.live(predicate)):
            if (number + pick) % 3:
                assert self.view.remove(entry)


OPS = ("add", "readd", "remove", "replace", "purge", "delta", "base", "reopen")


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(OPS), st.sampled_from("pq"), st.integers(0, 1000)),
        max_size=40,
    )
)
def test_base_plus_chain_reopens_to_the_live_rows_in_order(tmp_path_factory, steps):
    root = tmp_path_factory.mktemp("data")
    history = History()
    store = SnapshotStore(root)
    checkpoint(store, history.view)
    history.view = history.view.copy()
    for op, predicate, pick in steps:
        if op in ("delta", "base", "reopen"):
            if op == "base":  # a store with no chain behind it writes a base
                store = SnapshotStore(root)
            info = checkpoint(store, history.view)
            if op == "base":
                assert info.chain == 0
            expected = rows_of(history.view)
            next_seq = history.view.next_sequence_number()
            if op == "reopen":
                store = SnapshotStore(root)
                history.view = store.load_current().view
            # A checkpointed (or recovered) view is published: later writes
            # go to a copy, as the stream scheduler's checkouts do.
            history.view = history.view.copy()
            reopened = SnapshotStore(root).load_current().view
            assert rows_of(reopened) == expected
            assert reopened.next_sequence_number() == next_seq
        elif op == "add":
            history.add(predicate)
        elif op == "readd":
            history.readd(pick)
        else:
            getattr(history, op)(predicate, pick)
    checkpoint(store, history.view)
    reopened = SnapshotStore(root).load_current().view
    assert rows_of(reopened) == rows_of(history.view)
    assert reopened.next_sequence_number() == history.view.next_sequence_number()


def test_an_entry_back_in_its_old_slot_after_a_compaction_reopens_in_order(tmp_path):
    # Removing p's last 13 entries compacts it to its first 11, so its 12th,
    # added again, takes the slot it had under a new sequence number: the
    # same object in the same slot no longer means the same row.
    history = History()
    store = SnapshotStore(tmp_path)
    assert checkpoint(store, history.view).chain == 0
    history.view = history.view.copy()
    entries = history.live("p")
    for entry in entries[11:]:
        assert history.view.remove(entry)
    assert history.view.add(entries[11])
    assert history.live("p").index(entries[11]) == 11
    history.remove("q", 3)
    history.replace("q", 5)
    info = checkpoint(store, history.view)
    assert (info.chain, info.shards_written) == (1, 2)
    reopened = SnapshotStore(tmp_path).load_current().view
    assert rows_of(reopened) == rows_of(history.view)


def facts(size):
    lines = [f"b(X) <- X = {value}." for value in range(size)]
    return parse_program("\n".join(lines + ["top(X) <- b(X)."]))


def one_update_checkpoint(root, size, monkeypatch):
    """The checkpoint after one single-value insertion: its info, the
    entries the insertion made, the files it wrote and its manifest."""
    writer = open_scheduler(root, facts(size), durability_options=MANUAL)
    assert writer.checkpoint().chain == 0
    before = writer.view
    writer.submit(InsertionRequest(parse_constrained_atom("b(X) <- X = 100000")))
    assert writer.flush().ok
    written = {}
    real = SnapshotStore._write_atomic

    def record(path, data):
        written[str(path.relative_to(root))] = len(data)
        return real(path, data)

    monkeypatch.setattr(SnapshotStore, "_write_atomic", staticmethod(record))
    info = writer.checkpoint()
    monkeypatch.undo()
    made = 0
    for predicate in writer.view.predicates():
        old = {(id(entry), seq) for entry, seq in before.export_shard_rows(predicate)}
        made += sum((id(entry), seq) not in old for entry, seq in writer.view.export_shard_rows(predicate))
    manifest = json.loads((root / "snapshots" / info.manifest).read_bytes())
    return info, made, written, manifest


def test_one_update_writes_one_small_file_whatever_the_view_size(tmp_path, monkeypatch):
    sizes = {}
    for size in (40, 160):
        info, made, written, manifest = one_update_checkpoint(tmp_path / str(size), size, monkeypatch)
        # b and top: the inserted fact and what it derives.
        assert made == 2 and info.entries_encoded == made
        assert (info.chain, info.shards_written, info.shards_reused) == (1, 2, 0)
        # One data file: the delta.  The insertion's rewrite gave the
        # effective program a clause, so its file is new as well; the base
        # and deletion programs and the base's shard files are not written.
        (delta,) = manifest["chain"]
        effective = manifest["programs"]["effective_program"]
        assert set(written) == {
            f"shards/{delta}.json", f"shards/{effective}.json", f"snapshots/{info.manifest}", "CURRENT",
        }
        sizes[size] = written[f"shards/{delta}.json"]
    assert abs(sizes[160] - sizes[40]) <= 0.1 * sizes[40]


def test_stats_answer_from_memory_what_the_directory_says(tmp_path, monkeypatch):
    from repro.serve import MediatorService

    root = tmp_path / "data"
    program = facts(3)

    def fresh_reads():
        current = root / "CURRENT"
        name = current.read_text().strip() if current.exists() else None
        chain = len(json.loads((root / "snapshots" / name).read_text())["chain"]) if name else 0
        return len(WriteAheadLog(root / "wal").segments()), name, chain

    def reply(service):
        def refuse(*args, **kwargs):
            raise AssertionError("stats() touched the disk")

        with monkeypatch.context() as patched:
            patched.setattr(pathlib.Path, "iterdir", refuse)
            patched.setattr(pathlib.Path, "read_text", refuse)
            patched.setattr(builtins, "open", refuse)
            stats = service.stats()
        return stats["wal_segments"], stats["snapshot_id"], stats["snapshot_chain"]

    seen = []
    for life in range(2):
        writer = open_scheduler(root, program, durability_options=MANUAL)
        service = MediatorService(writer)
        assert reply(service) == fresh_reads()
        for value in range(3):
            writer.submit(InsertionRequest(parse_constrained_atom(f"b(X) <- X = {10 * life + value + 5}")))
            assert writer.flush().ok
            assert reply(service) == fresh_reads()
            assert writer.checkpoint() is not None  # rotates and prunes the WAL
            seen.append(reply(service))
            assert seen[-1] == fresh_reads()
    assert {chain for _, _, chain in seen} >= {0, 1, 2}

