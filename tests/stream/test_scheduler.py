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
    def test_a_batch_computes_its_program_edits_once(self, monkeypatch, algorithm):
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
            options=StreamOptions(deletion_algorithm=algorithm),
        )
        result = scheduler.apply_batch(
            [
                deletion("left(X) <- X = 1"),
                insertion("left(X) <- X = 7"),
                deletion("right(X) <- X = 11"),
            ]
        )
        assert result.ok and len(result.stats.units) == 1
        # One pass: its deletions' rewrite of the effective program (and,
        # under DRed, of the deletion program), reused by its insertion
        # pass; then the Add facts.  The commit takes the pass's programs
        # over: nothing is replayed.
        assert calls.count("deletion_rewrite") == (2 if algorithm == "dred" else 1)
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

    def test_independent_towers_are_one_pass(self):
        program = parse_program(TWO_TOWER_RULES)
        scheduler = StreamScheduler(program, ConstraintSolver())
        result = scheduler.apply_batch(
            [deletion("left(X) <- X = 1"), deletion("right(X) <- X = 11")]
        )
        (report,) = result.stats.units
        assert (report.deletions, report.insertions, report.attempts) == (2, 0, 1)
        # Checked out once, to the union of the two towers' closures.
        assert report.write_closure == ("left", "mid", "other", "right", "top")
        assert scheduler.query("top", UNIVERSE) == {(2,)}
        assert scheduler.query("other", UNIVERSE) == {(12,)}


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
        run_pass = StreamScheduler._run_pass

        def observing(self, *args):
            outcome = run_pass(self, *args)
            observed.append(self.query("left", UNIVERSE))
            return outcome

        monkeypatch.setattr(StreamScheduler, "_run_pass", observing)
        scheduler = StreamScheduler(program, ConstraintSolver())
        before = scheduler.query("left", UNIVERSE)
        scheduler.apply_batch(
            [deletion("left(X) <- X = 1"), deletion("right(X) <- X = 11")]
        )
        # The pass finished before publication: a mid-batch read must
        # still see the full pre-batch instance set.
        assert observed == [before]
        assert scheduler.query("left", UNIVERSE) == {(2,)}


class TestWholeBatchFailure:
    def test_a_failing_pass_is_attempted_once(self, monkeypatch):
        program = parse_program(TWO_TOWER_RULES)
        scheduler = StreamScheduler(program, ConstraintSolver())
        original = StraightDelete.delete_many
        failures = {"left": 1}

        def flaky(self, view, requests, purge_predicates=None):
            predicate = requests[0].atom.predicate
            if failures.get(predicate, 0) > 0:
                failures[predicate] -= 1
                raise RuntimeError("transient source hiccup")
            return original(self, view, requests, purge_predicates)

        monkeypatch.setattr(StraightDelete, "delete_many", flaky)
        failed = scheduler.apply_batch([deletion("left(X) <- X = 1")])
        assert not failed.ok
        assert failed.error == "RuntimeError: transient source hiccup"
        assert [unit.attempts for unit in failed.stats.units] == [1]
        assert scheduler.query("left", UNIVERSE) == {(1,), (2,)}
        # No retry inside the scheduler: the caller resubmits.
        assert scheduler.apply_batch([deletion("left(X) <- X = 1")]).ok
        assert scheduler.query("left", UNIVERSE) == {(2,)}

    def test_a_batch_whose_pass_raises_commits_nothing(self, monkeypatch):
        program = parse_program(TWO_TOWER_RULES)
        scheduler = StreamScheduler(program, ConstraintSolver())
        original = StraightDelete.delete_many

        def poisoned(self, view, requests, purge_predicates=None):
            if any(request.atom.predicate == "left" for request in requests):
                raise RuntimeError("permanent failure")
            return original(self, view, requests, purge_predicates)

        monkeypatch.setattr(StraightDelete, "delete_many", poisoned)
        published, effective = scheduler.snapshot_state()
        result = scheduler.apply_batch(
            [deletion("left(X) <- X = 1"), deletion("right(X) <- X = 11")]
        )
        assert not result.ok
        assert "permanent failure" in result.error
        assert [unit.status for unit in result.stats.units] == ["failed"]
        # Neither tower changed: the batch is one pass, whole or nothing.
        assert scheduler.snapshot_state() == (published, effective)
        assert result.view is published
        assert scheduler.query("left", UNIVERSE) == {(1,), (2,)}
        assert scheduler.query("right", UNIVERSE) == {(11,), (12,)}
        # The failed batch is in the history, with zero counters.
        assert scheduler.batches == (result.stats,)
        assert result.stats.as_dict()["failed_units"] == 1
        assert result.stats.solver_calls == 0
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

    def test_only_one_worker_constructs(self):
        # A batch's stratum units run one after another on the applying
        # thread; the field stays for callers that pass max_workers=1.
        assert StreamOptions(max_workers=1).max_workers == 1
        with pytest.raises(MaintenanceError, match="max_workers"):
            StreamOptions(max_workers=4)

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
        # Two independent towers: the unit deleting from `left` must not
        # copy (or even touch) the `right` tower's shards, and publication
        # must hand out the rewritten shards by pointer.
        program = parse_program(TWO_TOWER_RULES)
        scheduler = StreamScheduler(program, ConstraintSolver())
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
    def test_one_pass_over_two_towers_matches_one_batch_per_tower(self, algorithm):
        # Two towers in one batch are one pass on one checkout.  It must
        # clone what a batch per tower clones, and end where they end.
        program = parse_program(TWO_TOWER_RULES)
        towers = [
            [deletion("left(X) <- X = 1"), insertion("left(X) <- X = 3")],
            [deletion("right(X) <- X = 11"), insertion("right(X) <- X = 13")],
        ]
        options = StreamOptions(deletion_algorithm=algorithm)
        together = StreamScheduler(program, ConstraintSolver(), options=options)
        batch = together.apply_batch(
            [towers[0][0], towers[1][0], towers[0][1], towers[1][1]]
        )
        apart = StreamScheduler(program, ConstraintSolver(), options=options)
        per_tower = [apart.apply_batch(requests) for requests in towers]
        assert batch.ok and len(batch.stats.units) == 1
        assert batch.stats.shard_checkouts == sum(
            result.stats.shard_checkouts for result in per_tower
        )
        assert batch.stats.shard_checkouts > 0
        assert view_keys(batch.view) == view_keys(apart.view)
        assert together.verify(UNIVERSE)

    def test_next_batch_composes_on_the_published_shards(self):
        # Publication hands out shared shard pointers; a second batch must
        # clone-before-write again instead of mutating the snapshot a
        # reader may still hold.
        program = parse_program(TWO_TOWER_RULES)
        scheduler = StreamScheduler(program, ConstraintSolver())
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

    def test_write_scope_violation_fails_the_batch_loudly(self, monkeypatch):
        # A pass writing outside its batch's write scope must fail the
        # batch (the publish step would silently drop the write otherwise).
        from repro.datalog import parse_constrained_atom as parse_atom
        from repro.datalog.view import ViewEntry
        from repro.datalog.support import Support as ViewSupport

        program = parse_program(TWO_TOWER_RULES)
        scheduler = StreamScheduler(program, ConstraintSolver())
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
        assert "checkout scope" in result.error
        # Nothing published: the batch's scope is untouched.
        assert scheduler.query("left", UNIVERSE) == {(1,), (2,)}
