"""Unit tests for the constrained-atom insertion algorithm (Algorithm 3)."""

from __future__ import annotations


from repro.datalog import compute_tp_fixpoint, parse_constrained_atom, parse_program
from repro.maintenance import (
    EXTERNAL_CLAUSE_NUMBER,
    EngineOptions,
    delete_with_stdel,
    insert_atom,
    recompute_after_insertion,
)

UNIVERSE = tuple(range(0, 15))


def check_against_baseline(program, view, request, solver, universe=UNIVERSE, **options):
    incremental = insert_atom(
        program, view, request, solver,
        EngineOptions(**options) if options else EngineOptions(),
    )
    baseline = recompute_after_insertion(program, view, request, solver)
    assert incremental.view.instances(solver, universe) == baseline.view.instances(
        solver, universe
    )
    return incremental


class TestNumericInsertions:
    def test_insert_new_point_propagates(self, example45_program, example45_view, solver):
        request = parse_constrained_atom("b(X) <- X = 1")
        result = check_against_baseline(example45_program, example45_view, request, solver)
        assert (1,) in result.view.instances_for("b", solver, UNIVERSE)
        assert (1,) in result.view.instances_for("a", solver, UNIVERSE)
        assert (1,) in result.view.instances_for("c", solver, UNIVERSE)

    def test_insert_interval(self, example45_program, example45_view, solver):
        request = parse_constrained_atom("b(X) <- X >= 0 & X <= 2")
        result = check_against_baseline(example45_program, example45_view, request, solver)
        assert result.view.instances_for("b", solver, UNIVERSE) >= {(0,), (1,), (2,)}

    def test_insert_existing_instances_is_noop(self, example45_program, example45_view, solver):
        request = parse_constrained_atom("b(X) <- X = 7")
        result = check_against_baseline(example45_program, example45_view, request, solver)
        assert result.add_atoms == ()
        assert len(result.added_entries) == 0
        assert len(result.view) == len(example45_view)

    def test_insert_partially_existing(self, example45_program, example45_view, solver):
        request = parse_constrained_atom("b(X) <- X >= 4 & X <= 6")
        result = check_against_baseline(example45_program, example45_view, request, solver)
        assert (4,) in result.view.instances_for("b", solver, UNIVERSE)

    def test_insert_top_predicate_does_not_propagate_down(
        self, example45_program, example45_view, solver
    ):
        request = parse_constrained_atom("c(X) <- X = 0")
        result = check_against_baseline(example45_program, example45_view, request, solver)
        assert (0,) in result.view.instances_for("c", solver, UNIVERSE)
        assert (0,) not in result.view.instances_for("a", solver, UNIVERSE)
        assert (0,) not in result.view.instances_for("b", solver, UNIVERSE)

    def test_insert_fresh_predicate(self, example45_program, example45_view, solver):
        request = parse_constrained_atom("extra(X) <- X = 3")
        result = check_against_baseline(example45_program, example45_view, request, solver)
        assert result.view.instances_for("extra", solver, UNIVERSE) == {(3,)}

    def test_inserted_entries_carry_external_support(self, example45_program, example45_view, solver):
        request = parse_constrained_atom("b(X) <- X = 1")
        result = insert_atom(example45_program, example45_view, request, solver)
        seeds = [e for e in result.added_entries if e.support.is_leaf]
        assert seeds and all(
            e.support.clause_number == EXTERNAL_CLAUSE_NUMBER for e in seeds
        )

    def test_duplicate_semantics_reinsertion(self, example45_program, example45_view, solver):
        request = parse_constrained_atom("b(X) <- X = 1")
        first = insert_atom(example45_program, example45_view, request, solver)
        again = insert_atom(example45_program, first.view, request, solver)
        # The view keeps one entry per derivation; inserting instances it
        # already holds is not a second derivation (Add excludes them).
        assert again.add_atoms == ()
        assert len(again.added_entries) == 0
        external = [
            e for e in again.view.entries_for("b")
            if e.support.clause_number == EXTERNAL_CLAUSE_NUMBER
        ]
        assert len(external) == 1
        assert again.view.instances(solver, UNIVERSE) == first.view.instances(
            solver, UNIVERSE
        )

    def test_input_view_not_mutated(self, example45_program, example45_view, solver):
        before = len(example45_view)
        insert_atom(
            example45_program, example45_view,
            parse_constrained_atom("b(X) <- X = 1"), solver,
        )
        assert len(example45_view) == before


class TestRecursiveInsertions:
    def test_insert_edge_extends_closure(self, example6_program, example6_view, solver):
        request = parse_constrained_atom("p(X, Y) <- X = 'd' & Y = 'e'")
        result = check_against_baseline(
            example6_program, example6_view, request, solver, universe=None
        )
        paths = result.view.instances_for("a")
        assert ("d", "e") in paths
        assert ("c", "e") in paths   # c -> d -> e
        assert ("a", "e") in paths   # a -> c -> d -> e

    def test_insert_then_delete_roundtrip(self, example6_program, example6_view, solver):
        request = parse_constrained_atom("p(X, Y) <- X = 'd' & Y = 'e'")
        inserted = insert_atom(example6_program, example6_view, request, solver)
        removed = delete_with_stdel(example6_program, inserted.view, request, solver)
        assert removed.view.instances(solver) == example6_view.instances(solver)


class TestJoinInsertions:
    def test_insertion_joins_with_existing_entries(self, solver):
        program = parse_program(
            """
            r(X) <- X >= 0 & X <= 2.
            s(X) <- X = 9.
            both(X, Y) <- r(X), s(Y).
            """
        )
        view = compute_tp_fixpoint(program, solver)
        request = parse_constrained_atom("s(X) <- X = 5")
        result = check_against_baseline(program, view, request, solver)
        pairs = result.view.instances_for("both", solver, UNIVERSE)
        assert (0, 5) in pairs and (2, 5) in pairs

    def test_insertion_into_both_join_sides_via_two_requests(self, solver):
        program = parse_program(
            """
            r(X) <- X = 0.
            s(X) <- X = 1.
            both(X, Y) <- r(X), s(Y).
            """
        )
        view = compute_tp_fixpoint(program, solver)
        first = insert_atom(program, view, parse_constrained_atom("r(X) <- X = 10"), solver)
        second = insert_atom(
            program, first.view, parse_constrained_atom("s(X) <- X = 11"), solver
        )
        pairs = second.view.instances_for("both", solver, range(0, 20))
        assert {(0, 1), (10, 1), (0, 11), (10, 11)} <= pairs
