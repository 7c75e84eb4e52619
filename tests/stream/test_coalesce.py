"""Unit tests for net-effect coalescing."""

from __future__ import annotations

from repro.constraints import ConstraintSolver
from repro.datalog import parse_constrained_atom
from repro.maintenance import DeletionRequest, InsertionRequest
from repro.stream import Coalescer, ExternalChangeNotice


def deletion(text: str) -> DeletionRequest:
    return DeletionRequest(parse_constrained_atom(text))


def insertion(text: str) -> InsertionRequest:
    return InsertionRequest(parse_constrained_atom(text))


def coalesce(*payloads):
    return Coalescer(ConstraintSolver()).coalesce(payloads)


class TestDeduplication:
    def test_identical_requests_dedupe(self):
        batch = coalesce(
            deletion("b(X) <- X = 6"),
            insertion("c(X) <- X = 1"),
            deletion("b(X) <- X = 6"),
            insertion("c(X) <- X = 1"),
        )
        assert len(batch.deletions) == 1
        assert len(batch.insertions) == 1
        assert batch.report.deduplicated == 2

    def test_canonically_equal_constraints_dedupe(self):
        # Conjunct order differs; the canonical form is the dedup key.
        batch = coalesce(
            deletion("b(X, Y) <- X = 6 & Y = 2"),
            deletion("b(X, Y) <- Y = 2 & X = 6"),
        )
        assert len(batch.deletions) == 1

    def test_insertion_between_identical_deletions_blocks_dedup(self):
        # delete b6, insert b6 again, delete b6: the second deletion must
        # survive (it removes the re-inserted instances).
        batch = coalesce(
            deletion("b(X) <- X = 6"),
            insertion("b(X) <- X = 6"),
            deletion("b(X) <- X = 6"),
        )
        assert len(batch.deletions) == 2
        # ... and the insertion cancels against the later deletion.
        assert len(batch.insertions) == 0
        assert batch.report.cancelled == 1

    def test_deletion_between_identical_insertions_blocks_dedup(self):
        batch = coalesce(
            insertion("b(X) <- X = 6"),
            deletion("b(X) <- X = 6"),
            insertion("b(X) <- X = 6"),
        )
        # First insertion cancels against the deletion; the re-insertion
        # survives untouched (no deletion after it).
        assert len(batch.insertions) == 1
        assert batch.report.cancelled == 1
        assert len(batch.deletions) == 1

    def test_duplicate_insertions_kept_under_duplicate_semantics(self):
        # Only identical requests dedupe.  Overlapping insertions of
        # different atoms are both kept: at apply time each one's Add set
        # excludes what the view (and the other) already holds.
        batch = coalesce(
            insertion("b(X) <- X >= 5 & X <= 7"),
            insertion("b(X) <- X = 6"),
        )
        assert len(batch.insertions) == 2
        assert batch.report.deduplicated == 0


class TestCancellation:
    def test_insert_then_covering_delete_cancels(self):
        batch = coalesce(
            insertion("b(X) <- X = 6"),
            deletion("b(X) <- X >= 0"),
        )
        assert batch.insertions == ()
        assert len(batch.deletions) == 1
        assert batch.report.cancelled == 1

    def test_delete_then_insert_does_not_cancel(self):
        # Re-insertion after a deletion must survive: the batch applies
        # deletions first, so the insertion lands last, as in the stream.
        batch = coalesce(
            deletion("b(X) <- X >= 0"),
            insertion("b(X) <- X = 6"),
        )
        assert len(batch.insertions) == 1
        assert batch.report.cancelled == 0

    def test_partial_overlap_narrows_the_insertion(self):
        batch = coalesce(
            insertion("b(X) <- X >= 0 & X <= 10"),
            deletion("b(X) <- X >= 8"),
        )
        assert batch.report.cancelled == 0
        assert batch.report.narrowed == 1
        (survivor,) = batch.insertions
        solver = ConstraintSolver()
        instances = {
            v for (_, (v,)) in survivor.atom.instances(solver=solver, universe=range(0, 20))
        }
        assert instances == set(range(0, 8))

    def test_narrowing_to_nothing_counts_as_cancelled(self):
        # Neither deletion alone subsumes the insertion, but together they
        # cover it (constraints range over a dense domain, so the two
        # intervals must genuinely overlap-cover [4, 6]).
        batch = coalesce(
            insertion("b(X) <- X >= 4 & X <= 6"),
            deletion("b(X) <- X >= 4 & X <= 5"),
            deletion("b(X) <- X >= 5 & X <= 6"),
        )
        assert batch.insertions == ()
        assert batch.report.cancelled == 1

    def test_disjoint_requests_untouched(self):
        batch = coalesce(
            insertion("b(X) <- X = 1"),
            deletion("b(X) <- X = 6"),
            deletion("c(X) <- X = 1"),
        )
        assert len(batch.insertions) == 1
        assert batch.insertions[0].atom is not None
        assert batch.report.cancelled == 0 and batch.report.narrowed == 0


class TestNoticesAndGrouping:
    def test_notices_compact_per_source(self):
        batch = coalesce(
            ExternalChangeNotice("people", added_rows=(("alice",),), version=1),
            ExternalChangeNotice("faces", added_rows=(("f1",),), version=4),
            ExternalChangeNotice("people", removed_rows=(("alice",),), version=2),
        )
        assert len(batch.notices) == 2
        people = next(n for n in batch.notices if n.source == "people")
        # alice inserted then removed inside the batch: net effect empty.
        assert people.added_rows == () and people.removed_rows == ()
        assert people.version == 2
        assert batch.report.notices == 3
        assert batch.report.notices_compacted == 1


class TestDeletionSubsumption:
    def test_wider_later_delete_swallows_earlier_narrower_one(self):
        # The nested-interval pair: [3, 5] is fully inside [1, 10].
        batch = coalesce(
            deletion("b(X) <- X >= 3 & X <= 5"),
            deletion("b(X) <- X >= 1 & X <= 10"),
        )
        assert len(batch.deletions) == 1
        assert batch.report.subsumed == 1
        # The *wider, later* request is the survivor.
        survivor = batch.deletions[0]
        solver = ConstraintSolver()
        instances = {
            v
            for (_, (v,)) in survivor.atom.instances(
                solver=solver, universe=range(0, 12)
            )
        }
        assert instances == set(range(1, 11))

    def test_narrower_later_delete_does_not_swallow_the_wider_earlier_one(self):
        batch = coalesce(
            deletion("b(X) <- X >= 1 & X <= 10"),
            deletion("b(X) <- X >= 3 & X <= 5"),
        )
        assert len(batch.deletions) == 2
        assert batch.report.subsumed == 0

    def test_intervening_insertion_blocks_subsumption(self):
        # delete [3, 5], insert X = 4, delete [1, 10]: dropping the narrow
        # delete would change which derivations the insertion's Add set
        # contributes, so both deletions must survive.
        batch = coalesce(
            deletion("b(X) <- X >= 3 & X <= 5"),
            insertion("b(X) <- X = 4"),
            deletion("b(X) <- X >= 1 & X <= 10"),
        )
        assert len(batch.deletions) == 2
        assert batch.report.subsumed == 0
        # The insertion itself still cancels against the later wide delete.
        assert batch.insertions == ()
        assert batch.report.cancelled == 1

    def test_other_predicates_do_not_interfere(self):
        batch = coalesce(
            deletion("b(X) <- X >= 3 & X <= 5"),
            insertion("c(X) <- X = 4"),  # different predicate: no guard
            deletion("b(X) <- X >= 1 & X <= 10"),
            deletion("c(X) <- X = 9"),
        )
        assert batch.report.subsumed == 1
        assert len(batch.deletions) == 2  # wide b-delete + the c-delete

    def test_chain_collapses_to_the_widest_delete(self):
        batch = coalesce(
            deletion("b(X) <- X = 4"),
            deletion("b(X) <- X >= 3 & X <= 5"),
            deletion("b(X) <- X >= 0 & X <= 20"),
        )
        assert len(batch.deletions) == 1
        assert batch.report.subsumed == 2

    def test_disjoint_deletes_survive_with_quick_rejects(self):
        batch = coalesce(
            deletion("b(X) <- X >= 0 & X <= 3"),
            deletion("b(X) <- X >= 10 & X <= 13"),
        )
        assert len(batch.deletions) == 2
        assert batch.report.subsumed == 0
        assert batch.report.quick_rejects >= 1
