"""Unit tests for the constraint satisfiability solver."""

from __future__ import annotations

import pytest

from repro.constraints import (
    ConstraintSolver,
    FALSE,
    FrozenResultSet,
    NegatedConjunction,
    TRUE,
    Variable,
    compare,
    conjoin,
    equals,
    member,
    negate,
    not_equals,
)
from repro.domains import Domain, DomainRegistry, make_arithmetic_domain
from repro.errors import SolverError

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


@pytest.fixture
def solver():
    return ConstraintSolver()


class TestTrivialCases:
    def test_true_and_false(self, solver):
        assert solver.is_satisfiable(TRUE)
        assert not solver.is_satisfiable(FALSE)

    def test_single_comparison(self, solver):
        assert solver.is_satisfiable(equals(X, 3))
        assert solver.is_satisfiable(compare(X, "<", 0))

    def test_ground_comparisons(self, solver):
        assert solver.is_satisfiable(equals(3, 3))
        assert not solver.is_satisfiable(equals(3, 4))
        assert solver.is_satisfiable(compare(2, "<", 5))
        assert not solver.is_satisfiable(compare(5, "<", 2))
        assert solver.is_satisfiable(compare("abc", "<", "abd"))


class TestEqualityReasoning:
    def test_equality_chain_conflict(self, solver):
        constraint = conjoin(equals(X, 1), equals(X, Y), equals(Y, 2))
        assert not solver.is_satisfiable(constraint)

    def test_equality_chain_consistent(self, solver):
        constraint = conjoin(equals(X, 1), equals(X, Y), equals(Y, 1))
        assert solver.is_satisfiable(constraint)

    def test_disequality_violation(self, solver):
        assert not solver.is_satisfiable(conjoin(equals(X, Y), not_equals(X, Y)))
        assert not solver.is_satisfiable(conjoin(equals(X, 1), not_equals(X, 1)))

    def test_disequality_between_distinct_constants(self, solver):
        assert solver.is_satisfiable(conjoin(equals(X, 1), not_equals(X, 2)))

    def test_disequality_through_classes(self, solver):
        constraint = conjoin(equals(X, Y), equals(Y, Z), not_equals(X, Z))
        assert not solver.is_satisfiable(constraint)

    def test_string_constants(self, solver):
        assert not solver.is_satisfiable(conjoin(equals(X, "a"), equals(X, "b")))
        assert solver.is_satisfiable(conjoin(equals(X, "a"), not_equals(X, "b")))


class TestIntervalReasoning:
    def test_bound_conflict(self, solver):
        assert not solver.is_satisfiable(conjoin(compare(X, "<", 3), compare(X, ">", 5)))

    def test_bound_touching(self, solver):
        assert solver.is_satisfiable(conjoin(compare(X, "<=", 3), compare(X, ">=", 3)))
        assert not solver.is_satisfiable(conjoin(compare(X, "<", 3), compare(X, ">=", 3)))

    def test_constant_outside_interval(self, solver):
        assert not solver.is_satisfiable(conjoin(equals(X, 6), compare(X, "<=", 5)))
        assert solver.is_satisfiable(conjoin(equals(X, 6), compare(X, ">=", 5)))

    def test_point_interval_with_disequality(self, solver):
        constraint = conjoin(compare(X, ">=", 4), compare(X, "<=", 4), not_equals(X, 4))
        assert not solver.is_satisfiable(constraint)

    def test_variable_variable_propagation(self, solver):
        constraint = conjoin(compare(X, "<", Y), compare(Y, "<", 5), compare(X, ">", 10))
        assert not solver.is_satisfiable(constraint)

    def test_variable_variable_consistent(self, solver):
        constraint = conjoin(compare(X, "<", Y), compare(Y, "<=", 5), compare(X, ">=", 0))
        assert solver.is_satisfiable(constraint)

    def test_strict_self_comparison(self, solver):
        assert not solver.is_satisfiable(compare(X, "<", X))
        assert solver.is_satisfiable(compare(X, "<=", X))

    def test_float_bounds(self, solver):
        assert solver.is_satisfiable(conjoin(compare(X, ">", 1.5), compare(X, "<", 1.75)))
        assert not solver.is_satisfiable(conjoin(compare(X, ">", 1.5), compare(X, "<", 1.4)))

    def test_equality_of_two_pinned_values(self, solver):
        constraint = conjoin(equals(X, 3), equals(Y, 4), equals(X, Y))
        assert not solver.is_satisfiable(constraint)


class TestNegatedConjunctions:
    def test_simple_negation(self, solver):
        constraint = conjoin(compare(X, ">=", 5), negate(conjoin(equals(X, 6))))
        assert solver.is_satisfiable(constraint)
        assert not solver.is_satisfiable(conjoin(constraint, equals(X, 6)))

    def test_negation_excluding_everything(self, solver):
        # X = 3 & not(X = 3) is unsatisfiable.
        assert not solver.is_satisfiable(conjoin(equals(X, 3), negate(equals(X, 3))))

    def test_negation_of_conjunction_is_disjunctive(self, solver):
        # not(X = 1 & Y = 2) is satisfied by violating either conjunct.
        constraint = conjoin(
            equals(X, 1), negate(conjoin(equals(X, 1), equals(Y, 2))), equals(Y, 3)
        )
        assert solver.is_satisfiable(constraint)
        pinned = conjoin(
            equals(X, 1), negate(conjoin(equals(X, 1), equals(Y, 2))), equals(Y, 2)
        )
        assert not solver.is_satisfiable(pinned)

    def test_empty_negation_is_false(self, solver):
        assert not solver.is_satisfiable(NegatedConjunction(()))

    def test_nested_negation(self, solver):
        # not(X >= 5 & not(X = 6)) is equivalent to X < 5 or X = 6.
        nested = negate(conjoin(compare(X, ">=", 5), negate(equals(X, 6))))
        assert solver.is_satisfiable(conjoin(nested, equals(X, 6)))
        assert solver.is_satisfiable(conjoin(nested, equals(X, 3)))
        assert not solver.is_satisfiable(conjoin(nested, equals(X, 7)))

    def test_multiple_negations(self, solver):
        constraint = conjoin(
            compare(X, ">=", 0),
            compare(X, "<=", 2),
            negate(equals(X, 0)),
            negate(equals(X, 1)),
            negate(equals(X, 2)),
        )
        # Over the integers this is unsatisfiable, but the solver works over
        # an unspecified numeric domain, so 0.5 remains a model.
        assert solver.is_satisfiable(constraint)

    def test_branch_explosion_guarded(self, solver, monkeypatch):
        import importlib

        # (variables no other test touches: a decided node keeps its answer)
        monkeypatch.setattr(
            importlib.import_module("repro.constraints.solver"), "MAX_BRANCHES", 4
        )
        A, B, C = Variable("BranchA"), Variable("BranchB"), Variable("BranchC")
        negations = [
            negate(conjoin(equals(A, i), equals(B, i), equals(C, i))) for i in range(5)
        ]
        with pytest.raises(SolverError):
            solver.is_satisfiable(conjoin(*negations))


class TestEntailmentAndEquivalence:
    def test_entails_basic(self, solver):
        assert solver.entails(equals(X, 2), compare(X, "<=", 5))
        assert not solver.entails(compare(X, "<=", 5), equals(X, 2))

    def test_entails_with_context(self, solver):
        context = conjoin(compare(X, ">=", 5), compare(X, "<=", 5))
        assert solver.entails(context, equals(X, 5))


class TestMembership:
    @pytest.fixture
    def registry(self):
        domain = Domain("colors")
        domain.register("all", lambda: {"red", "green", "blue"})
        domain.register("none", lambda: set())
        domain.register("of", lambda item: {"red"} if item == "apple" else set())
        return DomainRegistry([domain, make_arithmetic_domain()])

    @pytest.fixture
    def domain_solver(self, registry):
        return ConstraintSolver(registry)

    def test_membership_with_pinned_element(self, domain_solver):
        good = conjoin(equals(X, "red"), member(X, "colors", "all"))
        bad = conjoin(equals(X, "purple"), member(X, "colors", "all"))
        assert domain_solver.is_satisfiable(good)
        assert not domain_solver.is_satisfiable(bad)

    def test_membership_empty_result(self, domain_solver):
        assert not domain_solver.is_satisfiable(member(X, "colors", "none"))

    def test_membership_unpinned_nonempty(self, domain_solver):
        assert domain_solver.is_satisfiable(member(X, "colors", "all"))

    def test_negative_membership(self, domain_solver):
        positive = conjoin(equals(X, "red"), member(X, "colors", "all").negated())
        assert not domain_solver.is_satisfiable(positive)
        outside = conjoin(equals(X, "purple"), member(X, "colors", "all").negated())
        assert domain_solver.is_satisfiable(outside)

    def test_membership_with_call_argument_pinned(self, domain_solver):
        constraint = conjoin(equals(Y, "apple"), member(X, "colors", "of", Y), equals(X, "red"))
        assert domain_solver.is_satisfiable(constraint)
        mismatch = conjoin(equals(Y, "pear"), member(X, "colors", "of", Y))
        assert not domain_solver.is_satisfiable(mismatch)

    def test_candidate_filtering_with_interval(self, domain_solver):
        arith = conjoin(
            member(X, "arith", "between", 1, 5), compare(X, ">", 10)
        )
        assert not domain_solver.is_satisfiable(arith)
        feasible = conjoin(member(X, "arith", "between", 1, 5), compare(X, ">", 3))
        assert domain_solver.is_satisfiable(feasible)

    def test_intensional_membership(self, domain_solver):
        constraint = conjoin(equals(X, 100), member(X, "arith", "greater", 5))
        assert domain_solver.is_satisfiable(constraint)
        wrong = conjoin(equals(X, 3), member(X, "arith", "greater", 5))
        assert not domain_solver.is_satisfiable(wrong)

    def test_unknown_domain_is_tolerated_by_default(self, solver):
        assert solver.is_satisfiable(member(X, "nowhere", "f"))

    def test_unknown_domain_unsat_when_configured(self, registry):
        # An unknown membership is always satisfiable, with or without an
        # evaluator; it answers "no" once its domain is registered and the
        # function returns nothing -- and the earlier answer is not served.
        solver = ConstraintSolver(registry)
        constraint = member(X, "nowhere", "f")
        assert solver.is_satisfiable(constraint)
        nowhere = Domain("nowhere")
        nowhere.register("f", lambda: set())
        registry.register(nowhere)
        assert not solver.is_satisfiable(constraint)


class TestGroundEvaluation:
    def test_comparisons(self, solver):
        assert solver.evaluate_ground(compare(X, "<", Y), {X: 1, Y: 2})
        assert not solver.evaluate_ground(compare(X, "<", Y), {X: 2, Y: 2})
        assert solver.evaluate_ground(equals(X, "a"), {X: "a"})

    def test_type_mismatch_in_ordering_is_false(self, solver):
        assert not solver.evaluate_ground(compare(X, "<", 5), {X: "text"})

    def test_int_float_equality(self, solver):
        assert solver.evaluate_ground(equals(X, 2), {X: 2.0})

    def test_unbound_variable_raises(self, solver):
        with pytest.raises(SolverError):
            solver.evaluate_ground(equals(X, Y), {X: 1})

    def test_negated_conjunction_ground(self, solver):
        constraint = negate(conjoin(equals(X, 1), equals(Y, 2)))
        assert not solver.evaluate_ground(constraint, {X: 1, Y: 2})
        assert solver.evaluate_ground(constraint, {X: 1, Y: 3})

    def test_negated_conjunction_with_free_inner_variables(self, solver):
        # not(Z = 6 & Z = X): Z is quantified inside the negation.
        constraint = negate(conjoin(equals(Z, 6), equals(Z, X)))
        assert not solver.evaluate_ground(constraint, {X: 6})
        assert solver.evaluate_ground(constraint, {X: 7})

    def test_membership_requires_evaluator(self, solver):
        with pytest.raises(SolverError):
            solver.evaluate_ground(member(X, "d", "f"), {X: 1})

    def test_membership_ground(self):
        domain = Domain("d")
        domain.register("f", lambda: {1, 2})
        evaluated = ConstraintSolver(DomainRegistry([domain]))
        assert evaluated.evaluate_ground(member(X, "d", "f"), {X: 1})
        assert not evaluated.evaluate_ground(member(X, "d", "f"), {X: 9})
        assert evaluated.evaluate_ground(member(X, "d", "f").negated(), {X: 9})


class TestSolverConfiguration:
    def test_with_evaluator_shares_options(self, monkeypatch):
        import importlib

        # A solver over an evaluator is ConstraintSolver(evaluator); the
        # branch budget is the module's MAX_BRANCHES, shared by every solver.
        monkeypatch.setattr(
            importlib.import_module("repro.constraints.solver"), "MAX_BRANCHES", 4
        )
        rebound = ConstraintSolver(DomainRegistry())
        assert rebound.evaluator is not None
        # (variables no other test touches: a decided node keeps its answer)
        A, B, C = Variable("SharedA"), Variable("SharedB"), Variable("SharedC")
        negations = [
            negate(conjoin(equals(A, i), equals(B, i), equals(C, i))) for i in range(5)
        ]
        with pytest.raises(SolverError):
            rebound.is_satisfiable(conjoin(*negations))

    def test_options_exposed(self, solver):
        assert solver.evaluator is None


class TestSatisfiabilityMemoization:
    """The satisfiability memo must never change observable answers.

    The decision-count tests use variables no other test touches: pure
    membership-free results now live in slots on the interned node itself,
    shared by every solver in the process, so a constraint another test
    already decided would be answered without any ``_decide_satisfiable``
    call here.
    """

    def test_pure_results_are_cached_and_stable(self):
        calls = []
        solver = ConstraintSolver()
        original = solver._decide_satisfiable

        def counting(constraint):
            calls.append(constraint)
            return original(constraint)

        solver._decide_satisfiable = counting
        fresh = Variable("MemoStable")
        constraint = conjoin(compare(fresh, ">=", 3), compare(fresh, "<=", 1))
        assert not solver.is_satisfiable(constraint)
        assert not solver.is_satisfiable(constraint)
        # Second call answered from the memo.
        assert len(calls) == 1

    def test_reordered_conjunction_hits_canonical_key(self):
        calls = []
        solver = ConstraintSolver()
        original = solver._decide_satisfiable

        def counting(constraint):
            calls.append(constraint)
            return original(constraint)

        solver._decide_satisfiable = counting
        fresh = Variable("MemoReorder")
        assert not solver.is_satisfiable(conjoin(equals(fresh, 1), equals(fresh, 2)))
        assert not solver.is_satisfiable(conjoin(equals(fresh, 2), equals(fresh, 1)))
        assert len(calls) == 1

    def test_external_results_cached_under_registry_version_token(self):
        # The registry versions its domains, so DCA-dependent results are
        # memoized by default; any *tracked* source change (here: function
        # re-registration) moves the domain's version and the stale entry is
        # no longer served.  A mutation the domain layer cannot see (the
        # closure's set) is the one remaining case needing a change notice.
        contents = {"a"}
        domain = Domain("d")
        domain.register("f", lambda: set(contents))
        registry = DomainRegistry([domain])
        solver = ConstraintSolver(registry)
        constraint = conjoin(member(X, "d", "f"), equals(X, "a"))
        assert solver.is_satisfiable(constraint)
        contents.clear()
        # Invisible mutation: the memoized answer is served...
        assert solver.is_satisfiable(constraint)
        # ...until the change is registered (new behaviour = new function).
        domain.register("f", lambda: set(contents))
        assert not solver.is_satisfiable(constraint)

    def test_registry_invalidate_cache_refreshes_external_results(self):
        contents = {"a"}
        domain = Domain("d")
        domain.register("f", lambda: set(contents))
        registry = DomainRegistry([domain])
        solver = ConstraintSolver(registry)
        constraint = conjoin(member(X, "d", "f"), equals(X, "a"))
        assert solver.is_satisfiable(constraint)
        contents.clear()
        registry.invalidate_cache()  # moves every domain to a new version
        assert not solver.is_satisfiable(constraint)

    def test_external_results_not_cached_without_version_token(self):
        # An ad-hoc evaluator that cannot say what version its domains are
        # at (no ``versions_of``) gets no external memo: every DCA-dependent
        # question is decided afresh.
        contents = {"a"}

        class BareEvaluator:
            def has_domain(self, name):
                return name == "d"

            def evaluate_call(self, domain_name, function, args):
                from repro.constraints.interfaces import FrozenResultSet

                return FrozenResultSet(contents)

        solver = ConstraintSolver(BareEvaluator())
        constraint = conjoin(member(X, "d", "f"), equals(X, "a"))
        assert solver.is_satisfiable(constraint)
        contents.clear()
        assert not solver.is_satisfiable(constraint)

    def test_external_memoization_with_invalidation_hook(self):
        contents = {"a"}
        domain = Domain("d")
        domain.register("f", lambda: set(contents))
        solver = ConstraintSolver(DomainRegistry([domain]))
        constraint = conjoin(member(X, "d", "f"), equals(X, "a"))
        assert solver.is_satisfiable(constraint)
        contents.clear()
        # Stale (the closure's set is untracked) until the owner of the
        # change notifies the solver...
        assert solver.is_satisfiable(constraint)
        solver.invalidate_external_functions()
        # ...after which the answer reflects the current source contents.
        assert not solver.is_satisfiable(constraint)

    @pytest.mark.parametrize("ask", ["satisfiable", "simplified"])
    def test_notice_for_one_domain_keeps_results_about_the_other(
        self, ask, monkeypatch
    ):
        import importlib

        # (the package attribute of that name is the function)
        simplify_module = importlib.import_module("repro.constraints.simplify")
        registry = DomainRegistry()
        for name in ("kept", "changed"):
            registry.register(Domain(name)).register("f", lambda: {"a"})
        solver = ConstraintSolver(registry)
        decided = []
        if ask == "satisfiable":
            target, attribute, question = solver, "_decide_satisfiable", solver.is_satisfiable
        else:
            target, attribute = simplify_module, "_simplify_conjuncts"

            def question(constraint):
                return simplify_module.simplify(constraint, solver)

        original = getattr(target, attribute)

        def counting(constraint, *rest):
            decided.append(constraint.domains())
            return original(constraint, *rest)

        monkeypatch.setattr(target, attribute, counting)
        constraints = {
            name: conjoin(member(X, name, "f"), compare(X, "!=", "b"))
            for name in ("kept", "changed")
        }
        first = {name: question(constraint) for name, constraint in constraints.items()}
        assert decided == [("kept",), ("changed",)]
        solver.invalidate_external_functions("changed")
        again = {name: question(constraint) for name, constraint in constraints.items()}
        assert again == first
        # Only the notified domain's result was computed again.
        assert decided == [("kept",), ("changed",), ("changed",)]

    def test_result_computed_across_a_source_change_is_never_served(self):
        # Thread A is held inside ``slow:f()`` with the old world's answer
        # in hand while the source changes and another question is asked;
        # what A files on its return was computed under the version that
        # passed and must not answer a later question.
        import threading

        from repro.constraints.interfaces import FrozenResultSet

        class HeldSource:
            def __init__(self):
                self.contents = {"slow": {"a"}, "other": {"a"}}
                self.versions = {"slow": 0, "other": 0}
                self.hold = True
                self.entered = threading.Event()
                self.release = threading.Event()

            def has_domain(self, name):
                return name in self.contents

            def versions_of(self, domains):
                return tuple(self.versions.get(name) for name in domains)

            @property
            def version(self):
                return tuple(sorted(self.versions.items()))

            def change(self, name, contents):
                self.contents[name] = set(contents)  # data before version
                self.versions[name] += 1

            def evaluate_call(self, domain_name, function, args):
                result = FrozenResultSet(self.contents[domain_name])
                if domain_name == "slow" and self.hold:
                    self.entered.set()
                    assert self.release.wait(timeout=30)
                return result

        source = HeldSource()
        solver = ConstraintSolver(source)
        slow = conjoin(member(X, "slow", "f"), equals(X, "a"))
        other = conjoin(member(X, "other", "f"), equals(X, "a"))
        answers = []
        thread = threading.Thread(
            target=lambda: answers.append(solver.is_satisfiable(slow))
        )
        thread.start()
        try:
            assert source.entered.wait(timeout=30)
            source.hold = False
            source.change("slow", ())
            assert solver.is_satisfiable(other)
        finally:
            source.release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert answers == [True]  # the old world's answer, to the old question
        assert not solver.is_satisfiable(slow)

    def test_memoization_can_be_disabled(self):
        # There is no switch: an evaluator that cannot version its sources
        # (no ``versions_of``) is what turns the external memo off.  The
        # solver files nothing, and membership-free answers still live on
        # their nodes.
        from repro.constraints.interfaces import FrozenResultSet

        class BareEvaluator:
            def has_domain(self, name):
                return name == "d"

            def evaluate_call(self, domain_name, function, args):
                return FrozenResultSet({"a"})

        solver = ConstraintSolver(BareEvaluator())
        assert solver.is_satisfiable(conjoin(member(X, "d", "f"), equals(X, "a")))
        fresh = Variable("MemoBare")
        pure = conjoin(compare(fresh, ">=", 3), compare(fresh, "<=", 1))
        assert not solver.is_satisfiable(pure)
        assert solver._sat_memo == {}
        assert pure._sat is False
