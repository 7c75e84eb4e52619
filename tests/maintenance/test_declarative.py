"""Unit tests for the declarative-semantics rewrites."""

from __future__ import annotations

import pytest

from repro.constraints import ConstraintSolver, NegatedConjunction, Variable
from repro.datalog import compute_tp_fixpoint, parse_constrained_atom, parse_program
from repro.maintenance import (
    DeletionRequest,
    InsertionRequest,
    build_add_set,
    deletion_rewrite,
    insertion_rewrite,
)
from repro.stream import StreamOptions, StreamScheduler
from repro.workloads import ground_request_atom, make_layered_program

X = Variable("X")


class TestDeletionRewrite:
    def test_only_matching_heads_rewritten(self, example45_program):
        deleted = (parse_constrained_atom("b(X) <- X = 6"),)
        rewritten = deletion_rewrite(example45_program, deleted)
        assert len(rewritten) == 4
        # Clause 3 (head b) gains a negated conjunct; the others are unchanged.
        assert any(
            isinstance(part, NegatedConjunction)
            for part in rewritten.clause(3).constraint.conjuncts()
        )
        assert rewritten.clause(1).constraint == example45_program.clause(1).constraint
        assert rewritten.clause(4).constraint == example45_program.clause(4).constraint

    def test_clause_numbers_preserved(self, example45_program):
        deleted = (parse_constrained_atom("b(X) <- X = 6"),)
        rewritten = deletion_rewrite(example45_program, deleted)
        assert [clause.number for clause in rewritten] == [1, 2, 3, 4]

    def test_rewrite_changes_least_model(self, example45_program, solver):
        deleted = (parse_constrained_atom("b(X) <- X = 6"),)
        rewritten = deletion_rewrite(example45_program, deleted)
        view = compute_tp_fixpoint(rewritten, solver)
        assert (6,) not in view.instances_for("b", solver, range(0, 10))
        assert (7,) in view.instances_for("b", solver, range(0, 10))

    def test_multiple_deleted_atoms(self, example45_program, solver):
        deleted = (
            parse_constrained_atom("b(X) <- X = 6"),
            parse_constrained_atom("b(X) <- X = 8"),
        )
        rewritten = deletion_rewrite(example45_program, deleted)
        view = compute_tp_fixpoint(rewritten, solver)
        b_values = {v for (v,) in view.instances_for("b", solver, range(0, 10))}
        assert b_values == {5, 7, 9}

    def test_deleting_everything_of_a_predicate(self, example45_program, solver):
        deleted = (parse_constrained_atom("b(X)"),)  # constraint "true"
        rewritten = deletion_rewrite(example45_program, deleted)
        view = compute_tp_fixpoint(rewritten, solver)
        assert view.instances_for("b", solver, range(0, 10)) == frozenset()

    def test_arity_mismatch_not_rewritten(self, solver):
        program = parse_program("p(X, Y) <- X = 1 & Y = 2.\np(X) <- X = 9.")
        deleted = (parse_constrained_atom("p(X) <- X = 9"),)
        rewritten = deletion_rewrite(program, deleted)
        assert rewritten.clause(1).constraint == program.clause(1).constraint
        assert rewritten.clause(2).constraint != program.clause(2).constraint

    def test_a_dead_clause_is_left_as_it_is(self):
        program = parse_program("p(X) <- X = 9.\np(X) <- X >= 5.")
        deleted = (parse_constrained_atom("p(X) <- X = 9"),)
        rewritten = deletion_rewrite(program, deleted)
        again = deletion_rewrite(rewritten, deleted)
        assert again.clause(1) is rewritten.clause(1)
        assert again.clause(2) is not rewritten.clause(2)


@pytest.mark.parametrize("algorithm", ["stdel", "dred"])
def test_a_hot_key_stops_growing_the_program(algorithm):
    """Deleting and re-inserting one fact narrows its dead clauses once:
    after a warm-up, the largest ``base1`` clause keeps its size."""
    scheduler = StreamScheduler(
        make_layered_program(40, 3, 2, 2).program,
        ConstraintSolver(),
        options=StreamOptions(max_workers=1, deletion_algorithm=algorithm),
    )
    atom = ground_request_atom("base1", (7,))

    def largest() -> int:
        clauses = scheduler.effective_program.clauses_for("base1")
        return max(len(clause.constraint.conjuncts()) for clause in clauses)

    for pair in range(120):
        for request in (DeletionRequest(atom), InsertionRequest(atom)):
            assert scheduler.apply_batch([request]).ok
        if pair == 19:
            warm = largest()
    assert largest() == warm


class TestInsertionRewrite:
    def test_add_atoms_become_facts(self, example45_program):
        atoms = (parse_constrained_atom("b(X) <- X = 1"),)
        rewritten = insertion_rewrite(example45_program, atoms)
        assert len(rewritten) == 5
        assert rewritten.clause(5).is_fact_clause
        assert rewritten.clause(5).predicate == "b"

    def test_least_model_gains_instances(self, example45_program, solver):
        atoms = (parse_constrained_atom("b(X) <- X = 1"),)
        rewritten = insertion_rewrite(example45_program, atoms)
        view = compute_tp_fixpoint(rewritten, solver)
        assert (1,) in view.instances_for("b", solver, range(0, 10))
        assert (1,) in view.instances_for("a", solver, range(0, 10))
        assert (1,) in view.instances_for("c", solver, range(0, 10))


class TestBuildAddSet:
    def test_new_instances_kept(self, example45_view, solver):
        inserted = parse_constrained_atom("b(X) <- X = 1")
        add = build_add_set(example45_view, inserted, solver)
        assert len(add) == 1
        assert add[0].predicate == "b"

    def test_existing_instances_excluded(self, example45_view, solver):
        # b already contains every X >= 5, so inserting X = 7 adds nothing.
        inserted = parse_constrained_atom("b(X) <- X = 7")
        assert build_add_set(example45_view, inserted, solver) == ()

    def test_partial_overlap_narrowed(self, example45_view, solver):
        inserted = parse_constrained_atom("b(X) <- X >= 4")
        add = build_add_set(example45_view, inserted, solver)
        assert len(add) == 1
        from repro.constraints import solution_set

        values = {
            v
            for (v,) in solution_set(
                add[0].constraint, list(add[0].atom.variables()),
                solver=solver, universe=range(0, 10),
            )
        }
        assert values == {4}

    def test_exclude_existing_false_keeps_request(self, example45_view, solver):
        # Excluding the existing instances always runs; when no instance of
        # the request exists (b holds X >= 5 only) it removes nothing, and
        # the request itself is the Add set, not a narrowed copy.
        inserted = parse_constrained_atom("b(X) <- X <= 2")
        add = build_add_set(example45_view, inserted, solver)
        assert add == (inserted,)

    def test_fresh_predicate(self, example45_view, solver):
        inserted = parse_constrained_atom("d(X) <- X = 1")
        add = build_add_set(example45_view, inserted, solver)
        assert add == (inserted,)
