"""Unit and integration tests for the stream scheduler."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.constraints import ConstraintSolver
from repro.datalog import compute_tp_fixpoint, parse_constrained_atom, parse_program
from repro.errors import MaintenanceError
from repro.maintenance import (
    DeletionRequest,
    ExtendedDRed,
    InsertionRequest,
    StraightDelete,
    insert_atom,
)
from repro.stream import ExternalChangeNotice, StreamOptions, StreamScheduler
from repro.workloads import (
    make_interval_program,
    make_layered_program,
    stream_batches,
)

TWO_TOWER_RULES = """
left(X) <- X = 1.
left(X) <- X = 2.
right(X) <- X = 11.
right(X) <- X = 12.
mid(X) <- left(X).
top(X) <- mid(X).
other(X) <- right(X).
"""

UNIVERSE = tuple(range(0, 40))


def deletion(text: str) -> DeletionRequest:
    return DeletionRequest(parse_constrained_atom(text))


def insertion(text: str) -> InsertionRequest:
    return InsertionRequest(parse_constrained_atom(text))


def view_keys(view):
    return sorted(str(entry.key()) for entry in view)


def sequential_track(spec_program, initial, requests, solver, algorithm):
    """The one-at-a-time reference: same requests, per-request algorithms."""
    view, program = initial, spec_program
    for request in requests:
        if isinstance(request, InsertionRequest):
            view = insert_atom(
                program if algorithm == "dred" else spec_program,
                view,
                request.atom,
                solver,
            ).view
        elif algorithm == "stdel":
            view = StraightDelete(spec_program, solver).delete(view, request).view
        else:
            result = ExtendedDRed(program, solver).delete(view, request)
            view, program = result.view, result.rewritten_program
    return view


class TestBatchedApplication:
    @pytest.mark.parametrize("algorithm", ["stdel", "dred"])
    def test_batch_matches_one_at_a_time_keys(self, algorithm):
        spec = make_layered_program(
            base_facts=6, layers=2, predicates_per_layer=2, fanin=2, seed=3
        )
        solver = ConstraintSolver()
        initial = compute_tp_fixpoint(spec.program, solver)
        batch = stream_batches(spec, 1, deletions=3, insertions=2, seed=5)[0]
        expected = sequential_track(
            spec.program, initial, batch.requests, solver, algorithm
        )
        scheduler = StreamScheduler(
            spec.program,
            ConstraintSolver(),
            view=initial.copy(),
            options=StreamOptions(deletion_algorithm=algorithm),
        )
        result = scheduler.apply_batch(batch.requests)
        assert result.ok
        assert view_keys(result.view) == view_keys(expected)
        assert scheduler.verify(UNIVERSE)

    def test_batch_costs_less_than_one_at_a_time(self):
        # Interval facts: the batch's deletions narrow the same entries, so
        # their propagation cones overlap and one pass checks each replaced
        # entry once where one pass per request checks it once per request.
        # (On disjoint cones -- ground facts -- a batch saves no counted
        # work any more: the per-request closure sweep it used to amortise
        # is gone from both sides.)
        spec = make_interval_program(predicates=3, intervals_per_predicate=2, seed=3)
        solver = ConstraintSolver()
        initial = compute_tp_fixpoint(spec.program, solver)
        batch = stream_batches(spec, 1, deletions=3, insertions=2, seed=5)[0]

        one_at_a_time = StreamScheduler(spec.program, solver, view=initial.copy())
        sequential_cost = 0
        for request in batch.requests:
            stats = one_at_a_time.apply_batch((request,)).stats
            sequential_cost += stats.derivation_attempts + stats.solver_calls
        scheduler = StreamScheduler(
            spec.program, ConstraintSolver(), view=initial.copy()
        )
        stats = scheduler.apply_batch(batch.requests).stats
        assert stats.derivation_attempts + stats.solver_calls < sequential_cost

    @pytest.mark.parametrize("algorithm", ["stdel", "dred"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_batch_computes_its_program_edits_once(
        self, monkeypatch, algorithm, workers
    ):
        import repro.stream.scheduler as module

        calls = []
        for name in ("deletion_rewrite", "insertion_rewrite"):

            def counted(*args, _original=getattr(module, name), _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        program = parse_program(TWO_TOWER_RULES)
        scheduler = StreamScheduler(
            program,
            ConstraintSolver(),
            options=StreamOptions(deletion_algorithm=algorithm, max_workers=workers),
        )
        result = scheduler.apply_batch(
            [
                deletion("left(X) <- X = 1"),
                insertion("left(X) <- X = 7"),
                deletion("right(X) <- X = 11"),
            ]
        )
        assert result.ok and len(result.stats.units) == 2
        # Per unit: its deletions' rewrite of the effective program (and,
        # under DRed, of the deletion program), reused by its insertion
        # pass; the left unit's Add facts.  The batch and the commit take
        # the units' programs over.  Parallel units all start from the
        # batch's programs, so the second one's edits are replayed on top
        # of the first one's.
        per_unit = 2 if algorithm == "dred" else 1
        replayed = per_unit if workers > 1 else 0
        assert calls.count("deletion_rewrite") == 2 * per_unit + replayed
        assert calls.count("insertion_rewrite") == 1
        effective = scheduler.effective_program
        assert [c.number for c in program if effective.clause(c.number) is not c] == [1, 3]
        assert len(effective) == len(program) + 1
        assert scheduler.verify(UNIVERSE)

    def test_coalescing_shrinks_the_applied_batch(self):
        program = parse_program(TWO_TOWER_RULES)
        scheduler = StreamScheduler(program, ConstraintSolver())
        result = scheduler.apply_batch(
            [
                deletion("left(X) <- X = 1"),
                deletion("left(X) <- X = 1"),  # duplicate
                insertion("right(X) <- X = 30"),
                deletion("right(X) <- X = 30"),  # cancels the insertion
            ]
        )
        assert result.stats.coalesce.deduplicated == 1
        assert result.stats.coalesce.cancelled == 1
        assert result.stats.applied == 2  # one deletion per tower survives
        assert scheduler.query("left", UNIVERSE) == {(2,)}
        assert scheduler.query("right", UNIVERSE) == {(11,), (12,)}

    def test_independent_strata_become_separate_units(self):
        program = parse_program(TWO_TOWER_RULES)
        scheduler = StreamScheduler(program, ConstraintSolver())
        result = scheduler.apply_batch(
            [deletion("left(X) <- X = 1"), deletion("right(X) <- X = 11")]
        )
        assert len(result.stats.units) == 2
        closures = sorted(
            tuple(sorted(unit.predicates)) for unit in result.stats.units
        )
        assert closures == [("left",), ("right",)]
        assert scheduler.query("top", UNIVERSE) == {(2,)}
        assert scheduler.query("other", UNIVERSE) == {(12,)}

    @pytest.mark.parametrize("algorithm", ["stdel", "dred"])
    def test_parallel_units_match_sequential(self, algorithm):
        program = parse_program(TWO_TOWER_RULES)
        requests = [
            deletion("left(X) <- X = 1"),
            deletion("right(X) <- X = 11"),
            insertion("left(X) <- X = 3"),
            insertion("right(X) <- X = 13"),
        ]
        reference = StreamScheduler(
            program,
            ConstraintSolver(),
            options=StreamOptions(deletion_algorithm=algorithm, max_workers=1),
        )
        parallel = StreamScheduler(
            program,
            ConstraintSolver(),
            options=StreamOptions(deletion_algorithm=algorithm, max_workers=4),
        )
        sequential_result = reference.apply_batch(requests)
        parallel_result = parallel.apply_batch(requests)
        assert len(parallel_result.stats.units) == 2
        assert view_keys(parallel_result.view) == view_keys(sequential_result.view)
        assert parallel.verify(UNIVERSE)


class TestStreamOrderSemantics:
    JOIN_RULES = """
    e(X) <- X = 1.
    f(X) <- X = 1.
    t(X) <- e(X), f(X).
    """

    @pytest.mark.parametrize("algorithm", ["stdel", "dred"])
    def test_insertion_after_deletion_does_not_rederive_deleted_instances(
        self, algorithm
    ):
        # Regression: the insertion pass must unfold through the program
        # carrying the batch's deletion rewrites -- with the original
        # program, re-inserting f(1) would re-derive the deleted t(1).
        program = parse_program(self.JOIN_RULES)
        requests = [
            deletion("t(X) <- X = 1"),
            deletion("f(X) <- X = 1"),
            insertion("f(X) <- X = 1"),
        ]
        scheduler = StreamScheduler(
            program,
            ConstraintSolver(),
            options=StreamOptions(deletion_algorithm=algorithm),
        )
        result = scheduler.apply_batch(requests)
        assert result.ok
        assert scheduler.query("t", UNIVERSE) == frozenset()
        assert scheduler.query("f", UNIVERSE) == {(1,)}
        assert scheduler.verify(UNIVERSE)

    def test_per_request_maintainer_keeps_deletion_rewrites_for_insertions(self):
        # Same scenario as three batches of one request each.
        program = parse_program(self.JOIN_RULES)
        scheduler = StreamScheduler(program, ConstraintSolver())
        for request in (
            deletion("t(X) <- X = 1"),
            deletion("f(X) <- X = 1"),
            insertion("f(X) <- X = 1"),
        ):
            assert scheduler.apply_batch((request,)).ok
        assert scheduler.query("t", UNIVERSE) == frozenset()
        assert scheduler.verify(UNIVERSE)

    def test_uncoalesced_batch_preserves_insert_then_delete_order(self):
        # Regression: deletions are applied ahead of insertions, so an
        # insert-then-delete pair must cancel in the batch's net effect
        # rather than leave the inserted fact behind.
        program = parse_program(TWO_TOWER_RULES)
        scheduler = StreamScheduler(program, ConstraintSolver())
        result = scheduler.apply_batch(
            [insertion("left(X) <- X = 30"), deletion("left(X) <- X = 30")]
        )
        assert result.ok
        assert (30,) not in scheduler.query("left", UNIVERSE)
        assert scheduler.verify(UNIVERSE)

    def test_uncoalesced_batch_preserves_delete_then_insert_order(self):
        program = parse_program(TWO_TOWER_RULES)
        scheduler = StreamScheduler(program, ConstraintSolver())
        scheduler.apply_batch(
            [deletion("left(X) <- X = 1"), insertion("left(X) <- X = 1")]
        )
        assert (1,) in scheduler.query("left", UNIVERSE)
        assert scheduler.verify(UNIVERSE)


class TestSnapshotIsolation:
    def test_mid_batch_reads_see_the_pre_batch_view(self, monkeypatch):
        program = parse_program(TWO_TOWER_RULES)
        observed = []
        apply_unit = StreamScheduler._apply_unit_with_retry

        def observing(self, *args):
            outcome = apply_unit(self, *args)
            observed.append(self.query("left", UNIVERSE))
            return outcome

        monkeypatch.setattr(StreamScheduler, "_apply_unit_with_retry", observing)
        scheduler = StreamScheduler(program, ConstraintSolver())
        before = scheduler.query("left", UNIVERSE)
        scheduler.apply_batch(
            [deletion("left(X) <- X = 1"), deletion("right(X) <- X = 11")]
        )
        # Both units finished before publication: every mid-batch read must
        # still see the full pre-batch instance set.
        assert observed == [before, before]
        assert scheduler.query("left", UNIVERSE) == {(2,)}

    def test_snapshot_returns_an_independent_copy(self):
        program = parse_program(TWO_TOWER_RULES)
        scheduler = StreamScheduler(program, ConstraintSolver())
        snapshot = scheduler.snapshot()
        scheduler.apply_batch([deletion("left(X) <- X = 1")])
        assert len(snapshot) != len(scheduler.view)


class TestFailureAndRetry:
    def test_failing_unit_is_retried_and_succeeds(self, monkeypatch):
        program = parse_program(TWO_TOWER_RULES)
        scheduler = StreamScheduler(
            program, ConstraintSolver(), options=StreamOptions(max_unit_attempts=2)
        )
        original = StraightDelete.delete_many
        failures = {"left": 1}

        def flaky(self, view, requests, purge_predicates=None):
            predicate = requests[0].atom.predicate
            if failures.get(predicate, 0) > 0:
                failures[predicate] -= 1
                raise RuntimeError("transient source hiccup")
            return original(self, view, requests, purge_predicates)

        monkeypatch.setattr(StraightDelete, "delete_many", flaky)
        result = scheduler.apply_batch([deletion("left(X) <- X = 1")])
        assert result.ok
        (unit,) = result.stats.units
        assert unit.attempts == 2
        assert scheduler.query("left", UNIVERSE) == {(2,)}

    def test_exhausted_unit_reported_failed_and_others_still_apply(self, monkeypatch):
        program = parse_program(TWO_TOWER_RULES)
        scheduler = StreamScheduler(
            program, ConstraintSolver(), options=StreamOptions(max_unit_attempts=2)
        )
        original = StraightDelete.delete_many

        def poisoned(self, view, requests, purge_predicates=None):
            if requests[0].atom.predicate == "left":
                raise RuntimeError("permanent failure")
            return original(self, view, requests, purge_predicates)

        monkeypatch.setattr(StraightDelete, "delete_many", poisoned)
        result = scheduler.apply_batch(
            [deletion("left(X) <- X = 1"), deletion("right(X) <- X = 11")]
        )
        assert not result.ok
        (failed,) = result.failed_units
        assert failed.attempts == 2
        assert "permanent failure" in failed.error
        # The failed unit's closure is untouched; the other applied.
        assert scheduler.query("left", UNIVERSE) == {(1,), (2,)}
        assert scheduler.query("right", UNIVERSE) == {(12,)}
        # The failed unit's rewrite must NOT have entered the effective
        # program, so verification still holds.
        assert scheduler.verify(UNIVERSE)


class TestExternalNotices:
    def test_notices_cost_no_maintenance_work(self):
        program = parse_program(TWO_TOWER_RULES)
        scheduler = StreamScheduler(program, ConstraintSolver())
        before = view_keys(scheduler.view)
        result = scheduler.apply_batch(
            [
                ExternalChangeNotice("faces", added_rows=(("f1",),)),
                ExternalChangeNotice("faces", removed_rows=(("f1",),)),
            ]
        )
        assert result.stats.external_notices == 1  # compacted per source
        assert result.stats.units == []
        assert result.stats.derivation_attempts == 0
        assert result.stats.solver_calls == 0
        assert view_keys(scheduler.view) == before  # Theorem 4: no view work

    def test_the_notice_is_the_invalidation_protocol(self, untracked_sources):
        """Untracked sources -- functions reading plain sets no version
        follows -- under a mediator-built (call-remembering) registry: a
        read stays on the remembered answer until a notice for *its* source
        is flushed; a name that is no domain drops everything."""
        mediator, shelves, executed = untracked_sources
        scheduler = mediator.streaming()

        def read():
            return scheduler.query("listed"), scheduler.query("priced")

        def notify(source):
            scheduler.submit(ExternalChangeNotice(source))
            assert scheduler.flush().ok

        assert read() == ({("ann",)}, {("pen",)})
        cold = executed()
        shelves["book"].add("bob")  # behind the registry's back
        assert read() == ({("ann",)}, {("pen",)}) and executed() == cold
        notify("shop")  # somebody else's notice
        assert read() == ({("ann",)}, {("pen",)})
        assert executed() == (cold[0], cold[1] + 1)
        notify("book")
        assert read() == ({("ann",), ("bob",)}, {("pen",)})
        assert executed() == (cold[0] + 1, cold[1] + 1)
        shelves["book"].discard("ann")
        shelves["shop"].add("ink")
        assert read() == ({("ann",), ("bob",)}, {("pen",)})
        notify("a-table-not-a-domain")
        assert read() == ({("bob",)}, {("ink",), ("pen",)})
        assert executed() == (cold[0] + 2, cold[1] + 2)


class TestLogIntegration:
    def test_submit_and_flush_drain_the_log(self):
        program = parse_program(TWO_TOWER_RULES)
        scheduler = StreamScheduler(program, ConstraintSolver())
        scheduler.submit(deletion("left(X) <- X = 1"))
        scheduler.submit(insertion("left(X) <- X = 4"))
        assert scheduler.log.pending_count() == 2
        result = scheduler.flush()
        assert result.ok
        assert scheduler.log.pending_count() == 0
        assert scheduler.query("left", UNIVERSE) == {(2,), (4,)}
        # Flushing an empty log is a harmless no-op batch.
        assert scheduler.flush().stats.applied == 0

    def test_applied_transactions_are_not_kept(self):
        # The log hands a drained transaction to its batch and forgets it: a
        # server's memory follows its view, not the updates it has served.
        # One fact per pair keeps each pass to one clause of the program.
        values = range(200)
        rules = "".join(f"left(X) <- X = {value}.\n" for value in values)
        scheduler = StreamScheduler(
            parse_program(rules + "top(X) <- left(X).\n"), ConstraintSolver()
        )
        transactions = []
        for value in values:
            fact = f"left(X) <- X = {value}"
            for request in (deletion(fact), insertion(fact)):
                transactions.append(weakref.ref(scheduler.submit(request)))
                assert scheduler.flush().ok
        gc.collect()
        assert sum(ref() is not None for ref in transactions) == 0
        assert scheduler.query("top", values) == {(value,) for value in values}


class TestViewMaintainerRebase:
    def test_apply_batched_routes_through_the_scheduler(self):
        spec = make_layered_program(base_facts=5, layers=2, seed=8)
        scheduler = StreamScheduler(spec.program, ConstraintSolver())
        batch = stream_batches(spec, 1, deletions=2, insertions=2, seed=3)[0]
        result = scheduler.apply_batch(batch.requests)
        assert result.ok
        assert result.stats.coalesce.submitted == len(batch.requests)
        assert scheduler.verify()

    def test_rejects_unknown_algorithm(self):
        spec = make_layered_program(base_facts=4, layers=1, seed=1)
        with pytest.raises(MaintenanceError):
            StreamScheduler(
                spec.program,
                ConstraintSolver(),
                options=StreamOptions(deletion_algorithm="magic"),
            )


class TestShardedPublish:
    def test_untouched_predicate_shards_are_never_copied(self):
        # Two independent towers, parallel workers: the unit deleting from
        # `left` must not copy (or even touch) the `right` tower's shards,
        # and publication must adopt the rewritten shards by pointer.
        program = parse_program(TWO_TOWER_RULES)
        scheduler = StreamScheduler(
            program, ConstraintSolver(), options=StreamOptions(max_workers=4)
        )
        before = {
            predicate: scheduler.view.shard_for(predicate)
            for predicate in scheduler.view.predicates()
        }
        result = scheduler.apply_batch([deletion("left(X) <- X = 1")])
        assert result.ok
        after = scheduler.view
        # Untouched tower: same shard objects, by identity.
        for predicate in ("right", "other"):
            assert after.shard_for(predicate) is before[predicate]
        # Rewritten closure: new shard objects.
        assert after.shard_for("left") is not before["left"]
        # The copy-on-write counter stays within the unit's write closure.
        (unit,) = result.stats.units
        assert 0 < unit.shard_checkouts <= len(unit.write_closure)
        assert result.stats.shard_checkouts == unit.shard_checkouts

    @pytest.mark.parametrize("algorithm", ["stdel", "dred"])
    def test_parallel_and_sequential_agree_on_checkout_counts(self, algorithm):
        program = parse_program(TWO_TOWER_RULES)
        requests = [
            deletion("left(X) <- X = 1"),
            deletion("right(X) <- X = 11"),
            insertion("left(X) <- X = 3"),
            insertion("right(X) <- X = 13"),
        ]
        sequential = StreamScheduler(
            program,
            ConstraintSolver(),
            options=StreamOptions(deletion_algorithm=algorithm, max_workers=1),
        ).apply_batch(requests)
        parallel = StreamScheduler(
            program,
            ConstraintSolver(),
            options=StreamOptions(deletion_algorithm=algorithm, max_workers=4),
        ).apply_batch(requests)
        assert (
            parallel.stats.shard_checkouts == sequential.stats.shard_checkouts > 0
        )
        assert view_keys(parallel.view) == view_keys(sequential.view)

    def test_next_batch_composes_on_the_published_shards(self):
        # Publication hands out shared shard pointers; a second batch must
        # clone-before-write again instead of mutating the snapshot a
        # reader may still hold.
        program = parse_program(TWO_TOWER_RULES)
        scheduler = StreamScheduler(
            program, ConstraintSolver(), options=StreamOptions(max_workers=4)
        )
        scheduler.apply_batch([deletion("left(X) <- X = 1")])
        snapshot = scheduler.view
        first_left = snapshot.instances_for("left", ConstraintSolver(), UNIVERSE)
        scheduler.apply_batch([deletion("left(X) <- X = 2")])
        # The previously published view object is untouched.
        assert snapshot.instances_for("left", ConstraintSolver(), UNIVERSE) == first_left
        assert scheduler.query("left", UNIVERSE) == frozenset()
        assert scheduler.verify(UNIVERSE)

    def test_subsumed_deletions_are_coalesced_before_scheduling(self):
        # Narrow-then-wider delete pair: only the wide one reaches a
        # maintenance pass, and the net effect matches applying both.
        program = parse_program(TWO_TOWER_RULES)
        scheduler = StreamScheduler(program, ConstraintSolver())
        result = scheduler.apply_batch(
            [
                deletion("left(X) <- X = 1"),
                deletion("left(X) <- X >= 0 & X <= 5"),
            ]
        )
        assert result.ok
        assert result.stats.coalesce.subsumed == 1
        assert result.stats.applied == 1
        assert scheduler.query("left", UNIVERSE) == frozenset()
        assert scheduler.query("top", UNIVERSE) == frozenset()
        assert scheduler.verify(UNIVERSE)

    def test_write_scope_violation_fails_the_unit_loudly(self, monkeypatch):
        # A unit writing outside its closure must fail its unit (the
        # publish step would silently drop the write otherwise).
        from repro.datalog import parse_constrained_atom as parse_atom
        from repro.datalog.view import ViewEntry
        from repro.datalog.support import Support as ViewSupport

        program = parse_program(TWO_TOWER_RULES)
        scheduler = StreamScheduler(
            program, ConstraintSolver(), options=StreamOptions(max_unit_attempts=1)
        )
        original = StraightDelete.delete_many

        def rogue(self, view, requests, purge_predicates=None):
            result = original(self, view, requests, purge_predicates)
            rogue_atom = parse_atom("right(X) <- X = 99")
            result.view.add(
                ViewEntry(rogue_atom.atom, rogue_atom.constraint, ViewSupport(0))
            )
            return result

        monkeypatch.setattr(StraightDelete, "delete_many", rogue)
        result = scheduler.apply_batch([deletion("left(X) <- X = 1")])
        assert not result.ok
        (failed,) = result.failed_units
        assert "checkout scope" in (failed.error or "")
        # Nothing published: the batch's closure is untouched.
        assert scheduler.query("left", UNIVERSE) == {(1,), (2,)}
