"""Unit tests for the T_P / W_P fixpoint operators."""

from __future__ import annotations

import pytest

from repro.constraints import ConstraintSolver, Variable, equals
from repro.datalog import (
    FixpointEngine,
    EngineOptions,
    MaterializedView,
    Support,
    ViewEntry,
    compute_tp_fixpoint,
    compute_wp_fixpoint,
    parse_program,
)
from repro.domains import Domain, DomainRegistry
from repro.errors import FixpointDivergenceError

X = Variable("X")


class TestExample5View:
    def test_entry_count_and_supports(self, example45_program, solver):
        view = compute_tp_fixpoint(example45_program, solver)
        assert len(view) == 5
        supports = {str(entry.support) for entry in view}
        assert supports == {"<1>", "<3>", "<2, <3>>", "<4, <1>>", "<4, <2, <3>>>"}

    def test_entry_constraints_match_paper(self, example45_program, solver):
        view = compute_tp_fixpoint(example45_program, solver)
        rendered = {(entry.predicate, str(entry.constraint)) for entry in view}
        assert ("a", "X >= 3") in rendered
        assert ("a", "X >= 5") in rendered
        assert ("b", "X >= 5") in rendered
        assert ("c", "X >= 3") in rendered
        assert ("c", "X >= 5") in rendered

    def test_instances(self, example45_view, solver):
        universe = range(0, 10)
        assert example45_view.instances_for("a", solver, universe) == {
            (v,) for v in range(3, 10)
        }
        assert example45_view.instances_for("b", solver, universe) == {
            (v,) for v in range(5, 10)
        }


class TestExample6View:
    def test_seven_entries(self, example6_program, solver):
        view = compute_tp_fixpoint(example6_program, solver)
        assert len(view) == 7
        assert len(view.entries_for("p")) == 3
        assert len(view.entries_for("a")) == 4

    def test_transitive_instance(self, example6_view):
        assert ("a", "d") in example6_view.instances_for("a")

    def test_recursive_termination_with_duplicates(self, example6_program, solver):
        # Duplicate semantics still terminates because the derivable set of
        # solvable constrained atoms is finite here.
        view = compute_tp_fixpoint(example6_program, solver)
        assert {str(e.support) for e in view.entries_for("a")} == {
            "<4, <1>>", "<4, <2>>", "<4, <3>>", "<5, <2>, <4, <3>>>",
        }


class TestOperatorBehaviour:
    def test_unsatisfiable_clause_dropped_by_tp(self, solver):
        program = parse_program("a(X) <- X >= 3 & X <= 1.\nb(X) <- X = 2.")
        view = compute_tp_fixpoint(program, solver)
        assert view.predicates() == ("b",)

    def test_unsatisfiable_clause_kept_by_wp(self, solver):
        program = parse_program("a(X) <- X >= 3 & X <= 1.\nb(X) <- X = 2.")
        view = compute_wp_fixpoint(program, solver)
        assert view.predicates() == ("a", "b")
        # Semantically the unsolvable entry contributes no instances.
        assert view.instances_for("a", solver, range(10)) == frozenset()

    def test_wp_keeps_membership_entries_regardless_of_source(self):
        domain = Domain("src")
        domain.register("items", lambda: set())
        solver = ConstraintSolver(DomainRegistry([domain]))
        program = parse_program("a(X) <- in(X, src:items()).")
        tp_view = compute_tp_fixpoint(program, solver)
        wp_view = compute_wp_fixpoint(program, solver)
        assert len(tp_view) == 0
        assert len(wp_view) == 1

    def test_step_is_single_application(self, example45_program, solver):
        engine = FixpointEngine(example45_program, solver)
        once = engine.step(MaterializedView())
        # Only the fact clauses fire on the empty interpretation.
        assert {entry.predicate for entry in once} == {"a", "b"}
        twice = engine.step(once)
        assert any(entry.predicate == "c" for entry in twice)

    def test_seeded_computation_is_inflationary(self, example45_program, solver):
        seed = MaterializedView()
        seed.add(ViewEntry(parse_program("z(X) <- X = 1.").clause(1).head, equals(X, 1), Support(0)))
        view = compute_tp_fixpoint(example45_program, solver, initial=seed)
        assert any(entry.predicate == "z" for entry in view)
        assert len(view) == 6

    def test_max_iterations_guard(self, solver):
        program = parse_program(
            """
            e(X, Y) <- X = 'a' & Y = 'b'.
            e(X, Y) <- X = 'b' & Y = 'a'.
            p(X, Y) <- e(X, Y).
            p(X, Y) <- e(X, Z), p(Z, Y).
            """
        )
        # Duplicate semantics over cyclic data: one entry per derivation,
        # infinitely many derivations, stopped by MAX_FIXPOINT_ROUNDS.
        with pytest.raises(FixpointDivergenceError):
            FixpointEngine(program, solver).compute()

    def test_derived_entries_are_always_projected(self, example45_program, solver):
        view = FixpointEngine(example45_program, solver).compute()
        # The binding equalities and renamed body variables are projected
        # away: a derived entry's constraint mentions only its head's.
        derived = [e for e in view.entries_for("a") if not e.support.is_leaf]
        assert derived
        for entry in view:
            if entry.support.is_leaf:
                continue
            assert entry.constraint.variables() <= set(entry.atom.args)
            assert len(list(entry.constraint.conjuncts())) == 1

    def test_body_predicate_without_entries_produces_nothing(self, solver):
        program = parse_program("c(X) <- missing(X).")
        assert len(compute_tp_fixpoint(program, solver)) == 0

    def test_operator_is_an_engine_argument(self, example45_program, solver):
        # The T_P / W_P choice is not an option field: the wrappers pick it,
        # and the same options object serves both operators.
        options = EngineOptions()
        view = compute_tp_fixpoint(example45_program, solver, options=options)
        assert len(view) == 5
        program = parse_program("a(X) <- X >= 3 & X <= 1.")
        assert len(compute_tp_fixpoint(program, solver, options=options)) == 0
        assert len(compute_wp_fixpoint(program, solver, options=options)) == 1
        engine = FixpointEngine(program, solver, options, check_solvability=False)
        assert len(engine.compute()) == 1


class TestMediatedFixpoint:
    def test_domain_calls_participate(self):
        domain = Domain("store")
        domain.register("stock", lambda: {"apple", "pear"})
        solver = ConstraintSolver(DomainRegistry([domain]))
        program = parse_program(
            """
            item(X) <- in(X, store:stock()).
            cheap(X) <- item(X) & X = 'apple'.
            """
        )
        view = compute_tp_fixpoint(program, solver)
        assert view.instances_for("item", solver) == {("apple",), ("pear",)}
        assert view.instances_for("cheap", solver) == {("apple",)}

    def test_unsolvable_ground_call_filtered_by_tp(self):
        domain = Domain("store")
        domain.register("stock", lambda: {"apple"})
        solver = ConstraintSolver(DomainRegistry([domain]))
        program = parse_program("flag(X) <- in(X, store:stock()) & X = 'durian'.")
        assert len(compute_tp_fixpoint(program, solver)) == 0
        assert len(compute_wp_fixpoint(program, solver)) == 1
