"""Unit tests for the update-stream transaction log."""

from __future__ import annotations

import gc
import threading
import weakref

import pytest

from repro.datalog import parse_constrained_atom
from repro.maintenance import DeletionRequest, InsertionRequest
from repro.reldb import Schema, Table
from repro.reldb.changelog import Change, ChangeKind, ChangeLog
from repro.stream import (
    ExternalChangeNotice,
    UpdateLog,
    attach_changelog,
)


def deletion(text: str) -> DeletionRequest:
    return DeletionRequest(parse_constrained_atom(text))


def insertion(text: str) -> InsertionRequest:
    return InsertionRequest(parse_constrained_atom(text))


class TestUpdateLog:
    def test_appends_are_ordered_and_timestamped(self):
        log = UpdateLog()
        first = log.append(deletion("b(X) <- X = 6"))
        second = log.append(insertion("b(X) <- X = 1"))
        third = log.append(ExternalChangeNotice("faces"))
        assert [t.txn_id for t in log.drain()] == [first.txn_id, second.txn_id, third.txn_id]
        assert first.txn_id < second.txn_id < third.txn_id
        assert first.timestamp <= second.timestamp <= third.timestamp

    def test_drain_consumes_exactly_the_pending_suffix(self):
        log = UpdateLog()
        log.append(deletion("b(X) <- X = 6"))
        log.append(insertion("b(X) <- X = 1"))
        assert log.pending_count() == 2
        batch = log.drain()
        assert [type(t.payload).__name__ for t in batch] == [
            "DeletionRequest",
            "InsertionRequest",
        ]
        assert log.pending_count() == 0
        assert log.drain() == ()
        late = log.append(deletion("b(X) <- X = 7"))
        assert [t.txn_id for t in log.drain()] == [late.txn_id]

    def test_rejects_non_payloads(self):
        log = UpdateLog()
        with pytest.raises(TypeError):
            log.append("delete everything")  # type: ignore[arg-type]

    def test_concurrent_appends_keep_ids_unique(self):
        log = UpdateLog()

        def writer():
            for _ in range(100):
                log.append(ExternalChangeNotice("src"))

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ids = [t.txn_id for t in log.drain()]
        assert len(ids) == 400
        assert len(set(ids)) == 400

    @pytest.mark.parametrize("limit", [0, -1, -5])
    def test_drain_limit_below_one_consumes_nothing(self, limit):
        log = UpdateLog()
        log.append(ExternalChangeNotice("src"))
        assert log.drain(limit=limit) == ()
        assert log.pending_count() == 1

    def test_drain_limit_beyond_the_backlog_consumes_all(self):
        log = UpdateLog()
        appended = [log.append(ExternalChangeNotice("src")) for _ in range(3)]
        assert log.drain(limit=10) == tuple(appended)
        assert log.pending_count() == 0

    def test_first_txn_id_starts_the_numbering(self):
        log = UpdateLog(first_txn_id=41)
        assert log.append(ExternalChangeNotice("src")).txn_id == 41
        assert log.append(ExternalChangeNotice("src")).txn_id == 42

    @pytest.mark.parametrize("first_txn_id", [0, -3, 1.5, "1"])
    def test_invalid_first_txn_id_is_rejected(self, first_txn_id):
        with pytest.raises(ValueError, match="first_txn_id"):
            UpdateLog(first_txn_id=first_txn_id)

    def test_injected_clock_stamps_each_transaction(self):
        ticks = iter([10.0, 12.5])
        log = UpdateLog(clock=lambda: next(ticks))
        first = log.append(ExternalChangeNotice("src"))
        second = log.append(ExternalChangeNotice("src"))
        assert (first.timestamp, second.timestamp) == (10.0, 12.5)
        assert str(second) == "txn 2 @ 12.500000: external change src (+0/-0 rows)"

    def test_drained_transactions_are_not_kept(self):
        log = UpdateLog()
        refs = [weakref.ref(log.append(ExternalChangeNotice("src"))) for _ in range(50)]
        log.drain()
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []


class TestChangelogFeed:
    def test_attach_changelog_forwards_changes_as_notices(self):
        changelog = ChangeLog()
        log = UpdateLog()
        detach = attach_changelog(log, changelog)
        changelog.record(Change(ChangeKind.INSERT, "people", 1, ("alice",)))
        changelog.record(
            Change(ChangeKind.UPDATE, "people", 2, ("alice", 30), old_row=("alice",))
        )
        notices = [t.payload for t in log.drain()]
        assert len(notices) == 2
        assert notices[0].added_rows == (("alice",),)
        assert notices[1].added_rows == (("alice", 30),)
        assert notices[1].removed_rows == (("alice",),)
        detach()
        changelog.record(Change(ChangeKind.DELETE, "people", 3, ("alice", 30)))
        assert log.pending_count() == 0  # detached: nothing new
        detach()  # double detach is a no-op

    def test_source_names_every_forwarded_notice(self):
        changelog = ChangeLog()
        log = UpdateLog()
        attach_changelog(log, changelog, source="hr")
        changelog.record(Change(ChangeKind.INSERT, "people", 1, ("alice",)))
        changelog.record(Change(ChangeKind.DELETE, "salaries", 2, ("alice", 10)))
        notices = [t.payload for t in log.drain()]
        assert [notice.source for notice in notices] == ["hr", "hr"]
        assert notices[1].removed_rows == (("alice", 10),)
        assert notices[1].added_rows == ()

    def test_table_writes_reach_the_log_with_their_versions(self):
        changelog = ChangeLog()
        table = Table("people", Schema.of("name", "age"), change_log=changelog)
        log = UpdateLog()
        attach_changelog(log, changelog)
        table.insert(("alice", 30))
        table.update_where(lambda row: row["name"] == "alice", {"age": 31})
        table.delete_row(("alice", 31))
        notices = [t.payload for t in log.drain()]
        assert [notice.version for notice in notices] == [1, 2, 3]
        assert [notice.source for notice in notices] == ["people"] * 3
        assert [(n.added_rows, n.removed_rows) for n in notices] == [
            ((("alice", 30),), ()),
            ((("alice", 31),), (("alice", 30),)),
            ((), (("alice", 31),)),
        ]
