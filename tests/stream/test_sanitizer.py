"""Regression tests for the opt-in shard-write sanitizer.

``REPRO_SHARD_SANITIZER=1`` arms the instrumentation; each test toggles the
environment through ``monkeypatch`` (the gate re-reads it on every call).
The bug classes covered are exactly the ones
:mod:`repro.sanitizer` documents: mutation of a published (shared) shard,
writes outside a batch's checkout scope, and torn publishes.  (That the
analyzer's closure tables equal a dependency walk is a tier-1 assertion
in ``tests/analysis/test_closure_differential.py``.)
"""

from __future__ import annotations

import pytest

from repro.constraints import ConstraintSolver
from repro.datalog import compute_tp_fixpoint, parse_constrained_atom, parse_program
from repro.datalog.support import Support
from repro.datalog.view import ViewEntry
from repro.errors import ShardSanitizerError, WriteScopeError
from repro.maintenance import DeletionRequest, StraightDelete
from repro.sanitizer import sanitizer_enabled
from repro.stream import StreamScheduler

RULES = """
left(X) <- X = 1.
left(X) <- X = 2.
right(X) <- X = 11.
mid(X) <- left(X).
top(X) <- mid(X).
other(X) <- right(X).
"""

UNIVERSE = tuple(range(0, 40))


@pytest.fixture
def armed(monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_SANITIZER", "1")
    assert sanitizer_enabled()


def make_view():
    program = parse_program(RULES)
    return program, compute_tp_fixpoint(program, ConstraintSolver())


class TestGate:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD_SANITIZER", raising=False)
        assert not sanitizer_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SHARD_SANITIZER", value)
        assert sanitizer_enabled()

    @pytest.mark.parametrize("value", ["", "0", "off", "no"])
    def test_falsy_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SHARD_SANITIZER", value)
        assert not sanitizer_enabled()


class TestSharedShardMutation:
    def test_direct_mutation_of_a_shared_shard_raises(self, armed):
        _, view = make_view()
        snapshot = view.copy()  # marks every shard shared
        entry = next(iter(view.entries_for("left")))
        shard = view._shards["left"]
        with pytest.raises(ShardSanitizerError, match="shared"):
            shard.remove(entry.key(), entry)
        # The snapshot saw nothing change.
        assert len(snapshot.entries_for("left")) == 2

    def test_facade_writes_stay_legal_via_copy_on_write(self, armed):
        _, view = make_view()
        snapshot = view.copy()
        entry = next(iter(view.entries_for("left")))
        assert view.remove(entry)  # clones the shard first: no error
        assert len(view.entries_for("left")) == 1
        assert len(snapshot.entries_for("left")) == 2


class TestSharedContainerWrite:
    """A clone shares its parts, chunks, groups and buckets with the shard
    it was cloned from; a write that skipped the ownership test would change
    the published shard without going through any of its mutators.  The
    sharing events record what an armed shard holds, and the publish check
    looks again."""

    CLOSURE = ["left", "mid", "top"]

    def checked_out(self):
        _, view = make_view()
        working = view.checkout(self.CLOSURE)
        entry = working.entries_for("left")[0]
        assert working.remove(entry) and working.add(entry)  # clones the shard
        clone, published = working._shards["left"], view._shards["left"]
        assert clone is not published
        # The writes above copied only what they reached.
        other = working.entries_for("left")[0]
        assert other is not entry
        return view, working, clone, published, other

    def test_legal_writes_and_lazy_builds_pass_the_publish_check(self, armed):
        view, working, _, _, _ = self.checked_out()
        view.find_parents_of(Support(1))  # lazy builds on the armed shards
        view.probe_range("left", 0, 1)
        view.all_variable_names()
        working.assert_publish_scope(view, self.CLOSURE)

    def test_write_into_a_shared_group_trips_the_publish_check(self, armed):
        view, working, clone, published, other = self.checked_out()
        group = clone._by_support.get(other.support)
        assert group is published._by_support.get(other.support)
        group.remove(other.key())  # by hand: no ownership test, no copy
        with pytest.raises(ShardSanitizerError, match="changed after it was published"):
            working.assert_publish_scope(view, self.CLOSURE)

    def test_write_into_a_shared_bucket_trips_the_publish_check(self, armed):
        view, working, clone, published, other = self.checked_out()
        (value,) = other.bound_args()
        bucket = clone._arg[0].bound.get(value)
        assert bucket is published._arg[0].bound.get(value)
        bucket.clear()
        with pytest.raises(ShardSanitizerError, match="changed after it was published"):
            working.assert_publish_scope(view, self.CLOSURE)

    def test_write_into_a_shared_part_trips_the_publish_check(self, armed):
        view, working, _, _, _ = self.checked_out()
        # ``mid`` is cloned but never written: every part is still shared.
        clone, published = working._writable_shard("mid"), view._shards["mid"]
        part = next(part for part in clone._index._parts if part)
        assert any(part is shared for shared in published._index._parts)
        part.clear()
        with pytest.raises(ShardSanitizerError, match="changed after it was published"):
            working.assert_publish_scope(view, self.CLOSURE)

    def test_write_into_a_shared_chunk_trips_the_publish_check(self, armed):
        view, working, _, _, _ = self.checked_out()
        clone, published = working._writable_shard("mid"), view._shards["mid"]
        assert clone._chunks[0] is published._chunks[0]
        clone._chunks[0][0] = None
        with pytest.raises(ShardSanitizerError, match="changed after it was published"):
            working.assert_publish_scope(view, self.CLOSURE)


class TestCommitCheck:
    """The publish check runs on every commit that changes the view, with
    the scheduler's default options: a batch's pass is checked before its
    view is published, not only where a test asks for it."""

    def test_a_pass_writing_a_shared_container_fails_at_commit(
        self, armed, monkeypatch
    ):
        scheduler = StreamScheduler(parse_program(RULES), ConstraintSolver())
        published = scheduler.view
        original = StraightDelete.delete_many

        def leaky(self, view, requests, purge_predicates=None):
            result = original(self, view, requests, purge_predicates)
            # The pass cloned ``left``; the clone still shares the support
            # group of the entry it kept with the published shard.
            (kept,) = result.view.entries_for("left")
            group = result.view._shards["left"]._by_support.get(kept.support)
            assert group is published._shards["left"]._by_support.get(kept.support)
            group.remove(kept.key())  # by hand: no ownership test, no copy
            return result

        monkeypatch.setattr(StraightDelete, "delete_many", leaky)
        with pytest.raises(ShardSanitizerError, match="changed after it was published"):
            scheduler.apply_batch([DeletionRequest(parse_constrained_atom("left(X) <- X = 1"))])
        # Nothing was committed.
        assert scheduler.view is published
        assert scheduler.batches == ()

    def test_legal_batches_pass_the_commit_check(self, armed):
        scheduler = StreamScheduler(parse_program(RULES), ConstraintSolver())
        result = scheduler.apply_batch(
            [
                DeletionRequest(parse_constrained_atom("left(X) <- X = 1")),
                DeletionRequest(parse_constrained_atom("right(X) <- X = 11")),
            ]
        )
        assert result.ok and len(result.stats.units) == 1
        assert scheduler.query("top", UNIVERSE) == {(2,)}
        assert scheduler.verify(UNIVERSE)


class TestWriteScope:
    def test_write_outside_checkout_scope_raises(self, armed):
        _, view = make_view()
        working = view.checkout({"left", "mid", "top"})
        rogue = parse_constrained_atom("right(X) <- X = 99")
        with pytest.raises(WriteScopeError, match="checkout scope"):
            working.add(ViewEntry(rogue.atom, rogue.constraint, Support(0)))

    def test_scope_fence_holds_without_the_sanitizer(self, monkeypatch):
        # The checkout fence is always on; the sanitizer only adds the
        # sharing/publish checks on top.
        monkeypatch.delenv("REPRO_SHARD_SANITIZER", raising=False)
        _, view = make_view()
        working = view.checkout({"left"})
        rogue = parse_constrained_atom("right(X) <- X = 99")
        with pytest.raises(WriteScopeError):
            working.add(ViewEntry(rogue.atom, rogue.constraint, Support(0)))


class TestTornPublish:
    def test_out_of_closure_rewrite_is_a_torn_publish(self, armed):
        _, view = make_view()
        working = view.checkout({"left", "mid", "top", "right", "other"})
        working.remove(next(iter(working.entries_for("right"))))
        # Publishing only {left, mid, top} would silently drop the right
        # rewrite: the publish-scope assertion catches it first.
        with pytest.raises(ShardSanitizerError, match="torn publish"):
            working.assert_publish_scope(view, ["left", "mid", "top"])
        # Declaring the full closure makes the same publish legal.
        working.assert_publish_scope(
            view, ["left", "mid", "top", "right", "other"]
        )

    def test_dropped_shard_is_a_torn_publish(self, armed):
        _, view = make_view()
        working = view.copy()
        del working._shards["right"]
        with pytest.raises(ShardSanitizerError, match="dropped"):
            working.assert_publish_scope(view, ["left"])


class TestSchedulerUnderSanitizer:
    def test_closure_violating_batch_fails_loudly(self, armed, monkeypatch):
        program = parse_program(RULES)
        scheduler = StreamScheduler(program, ConstraintSolver())
        original = StraightDelete.delete_many

        def rogue(self, view, requests, purge_predicates=None):
            result = original(self, view, requests, purge_predicates)
            atom = parse_constrained_atom("right(X) <- X = 99")
            result.view.add(ViewEntry(atom.atom, atom.constraint, Support(0)))
            return result

        monkeypatch.setattr(StraightDelete, "delete_many", rogue)
        request = DeletionRequest(parse_constrained_atom("left(X) <- X = 1"))
        result = scheduler.apply_batch([request])
        assert not result.ok
        assert "WriteScopeError" in result.error
        # A pass is attempted once, and a failed batch commits nothing.
        assert [unit.attempts for unit in result.stats.units] == [1]
        assert scheduler.view is result.view
        assert scheduler.query("left", UNIVERSE) == {(1,), (2,)}
        assert scheduler.query("right", UNIVERSE) == {(11,)}

    def test_clean_batches_pass_under_the_sanitizer(self, armed):
        program = parse_program(RULES)
        scheduler = StreamScheduler(program, ConstraintSolver())
        result = scheduler.apply_batch(
            [DeletionRequest(parse_constrained_atom("left(X) <- X = 1"))]
        )
        assert result.ok
        assert scheduler.query("left", UNIVERSE) == {(2,)}
        assert scheduler.query("top", UNIVERSE) == {(2,)}
        assert scheduler.verify(UNIVERSE)
