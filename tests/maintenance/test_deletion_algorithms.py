"""Unit tests for the two deletion algorithms (Extended DRed and StDel).

Every scenario checks both algorithms against the declarative semantics
(Theorem 1 / Theorem 2): the instances of the maintained view must equal the
instances of the least model of the rewritten program ``P'``.
"""

from __future__ import annotations

import pytest

from repro.constraints import ConstraintSolver, Variable, compare, conjoin
from repro.datalog import compute_tp_fixpoint, parse_constrained_atom, parse_program
from repro.maintenance import (
    EngineOptions,
    delete_with_dred,
    delete_with_stdel,
    recompute_after_deletion,
)

UNIVERSE = tuple(range(0, 15))


def check_both_algorithms(program, view, request, solver, universe=UNIVERSE):
    """Run DRed, StDel and the declarative baseline; all must agree."""
    declarative = recompute_after_deletion(program, view, request, solver)
    dred = delete_with_dred(program, view, request, solver)
    stdel = delete_with_stdel(program, view, request, solver)
    expected = declarative.view.instances(solver, universe)
    assert dred.view.instances(solver, universe) == expected
    assert stdel.view.instances(solver, universe) == expected
    return declarative, dred, stdel


class TestNumericDeletions:
    def test_delete_single_point(self, example45_program, example45_view, solver):
        request = parse_constrained_atom("b(X) <- X = 6")
        declarative, dred, stdel = check_both_algorithms(
            example45_program, example45_view, request, solver
        )
        assert (6,) not in stdel.view.instances_for("b", solver, UNIVERSE)
        # a keeps 6 through the independent X >= 3 derivation (Example 4).
        assert (6,) in stdel.view.instances_for("a", solver, UNIVERSE)

    def test_delete_interval(self, example45_program, example45_view, solver):
        request = parse_constrained_atom("b(X) <- X >= 8 & X <= 10")
        check_both_algorithms(example45_program, example45_view, request, solver)

    def test_delete_everything_of_predicate(self, example45_program, example45_view, solver):
        request = parse_constrained_atom("b(X)")
        _, dred, stdel = check_both_algorithms(
            example45_program, example45_view, request, solver
        )
        assert stdel.view.instances_for("b", solver, UNIVERSE) == frozenset()
        assert dred.view.instances_for("b", solver, UNIVERSE) == frozenset()

    def test_delete_from_base_of_chain(self, example45_program, example45_view, solver):
        request = parse_constrained_atom("a(X) <- X = 4")
        _, _, stdel = check_both_algorithms(
            example45_program, example45_view, request, solver
        )
        # c(4) is gone because its only derivation goes through a(4).
        assert (4,) not in stdel.view.instances_for("c", solver, UNIVERSE)

    def test_delete_absent_instances_is_noop(self, example45_program, example45_view, solver):
        request = parse_constrained_atom("b(X) <- X = 1")
        declarative, dred, stdel = check_both_algorithms(
            example45_program, example45_view, request, solver
        )
        assert stdel.view.instances(solver, UNIVERSE) == example45_view.instances(solver, UNIVERSE)
        assert dred.stats.seed_atoms == 0
        assert len(stdel.p_out) == 0

    def test_delete_unknown_predicate_is_noop(self, example45_program, example45_view, solver):
        request = parse_constrained_atom("zzz(X) <- X = 1")
        check_both_algorithms(example45_program, example45_view, request, solver)

    def test_sequential_deletions(self, example45_program, example45_view, solver):
        first = parse_constrained_atom("b(X) <- X = 6")
        second = parse_constrained_atom("b(X) <- X = 7")
        stdel1 = delete_with_stdel(example45_program, example45_view, first, solver)
        # StDel never rederives, so the original program can be reused for
        # every deletion of the sequence.
        stdel2 = delete_with_stdel(example45_program, stdel1.view, second, solver)
        dred1 = delete_with_dred(example45_program, example45_view, first, solver)
        # DRed rederives from the program, so the second call must run
        # against the program rewritten by the first deletion.
        dred2 = delete_with_dred(dred1.rewritten_program, dred1.view, second, solver)
        from repro.maintenance import deletion_rewrite, full_recompute

        twice_rewritten = deletion_rewrite(
            deletion_rewrite(example45_program, (first,)), (second,)
        )
        expected = full_recompute(twice_rewritten, solver).view.instances(solver, UNIVERSE)
        assert stdel2.view.instances(solver, UNIVERSE) == expected
        assert dred2.view.instances(solver, UNIVERSE) == expected

    def test_sequential_dred_without_program_threading_resurrects(
        self, example45_program, example45_view, solver
    ):
        # Documents the behaviour the previous test works around: reusing the
        # *original* program for the second DRed call lets rederivation put
        # the first deletion's instances back.
        first = parse_constrained_atom("b(X) <- X = 6")
        second = parse_constrained_atom("b(X) <- X = 7")
        dred1 = delete_with_dred(example45_program, example45_view, first, solver)
        stale = delete_with_dred(example45_program, dred1.view, second, solver)
        assert (6,) in stale.view.instances_for("b", solver, UNIVERSE)


class TestRecursiveDeletions:
    def test_example6_deletion(self, example6_program, example6_view, solver):
        request = parse_constrained_atom("p(X, Y) <- X = 'c' & Y = 'd'")
        _, dred, stdel = check_both_algorithms(
            example6_program, example6_view, request, solver, universe=None
        )
        assert stdel.view.instances_for("a") == {("a", "b"), ("a", "c")}
        assert dred.view.instances_for("a") == {("a", "b"), ("a", "c")}

    def test_delete_middle_edge_of_path(self, solver):
        program = parse_program(
            """
            e(X, Y) <- X = 'n0' & Y = 'n1'.
            e(X, Y) <- X = 'n1' & Y = 'n2'.
            e(X, Y) <- X = 'n2' & Y = 'n3'.
            path(X, Y) <- e(X, Y).
            path(X, Y) <- e(X, Z), path(Z, Y).
            """
        )
        view = compute_tp_fixpoint(program, solver)
        request = parse_constrained_atom("e(X, Y) <- X = 'n1' & Y = 'n2'")
        _, _, stdel = check_both_algorithms(program, view, request, solver, universe=None)
        remaining = stdel.view.instances_for("path")
        assert remaining == {("n0", "n1"), ("n2", "n3")}

    def test_delete_derived_atom_only(self, example6_program, example6_view, solver):
        # Deleting a derived (non-base) atom: only the view entries of that
        # predicate are affected; base facts stay (the paper deletes from the
        # view, not from the sources).
        request = parse_constrained_atom("a(X, Y) <- X = 'a' & Y = 'd'")
        _, _, stdel = check_both_algorithms(
            example6_program, example6_view, request, solver, universe=None
        )
        assert ("a", "d") not in stdel.view.instances_for("a")
        assert ("c", "d") in stdel.view.instances_for("p")


class TestJoinsAndMultiplePremises:
    @pytest.fixture
    def join_program(self):
        return parse_program(
            """
            r(X) <- X >= 0 & X <= 4.
            s(X) <- X >= 3 & X <= 8.
            both(X) <- r(X), s(X).
            top(X) <- both(X).
            """
        )

    def test_delete_from_one_join_side(self, join_program, solver):
        view = compute_tp_fixpoint(join_program, solver)
        request = parse_constrained_atom("r(X) <- X = 3")
        _, _, stdel = check_both_algorithms(join_program, view, request, solver)
        assert (3,) not in stdel.view.instances_for("both", solver, UNIVERSE)
        assert (4,) in stdel.view.instances_for("both", solver, UNIVERSE)

    def test_delete_value_outside_join_overlap(self, join_program, solver):
        view = compute_tp_fixpoint(join_program, solver)
        request = parse_constrained_atom("r(X) <- X = 0")
        _, _, stdel = check_both_algorithms(join_program, view, request, solver)
        # 0 was never in the join result, so 'both' is untouched.
        assert stdel.view.instances_for("both", solver, UNIVERSE) == {(3,), (4,)}

    def test_same_predicate_twice_in_body(self, solver):
        program = parse_program(
            """
            n(X) <- X >= 1 & X <= 3.
            pair(X, Y) <- n(X), n(Y).
            """
        )
        view = compute_tp_fixpoint(program, solver)
        request = parse_constrained_atom("n(X) <- X = 2")
        _, _, stdel = check_both_algorithms(program, view, request, solver)
        pairs = stdel.view.instances_for("pair", solver, UNIVERSE)
        assert (2, 1) not in pairs and (1, 2) not in pairs and (2, 2) not in pairs
        assert (1, 3) in pairs


class TestAlgorithmSpecificBehaviour:
    def test_stdel_performs_no_rederivation(self, example45_program, example45_view, solver):
        request = parse_constrained_atom("b(X) <- X = 6")
        result = delete_with_stdel(example45_program, example45_view, request, solver)
        assert result.stats.rederived_entries == 0
        assert result.stats.replaced_entries >= 1

    def test_dred_reports_pout_and_overestimate(self, example45_program, example45_view, solver):
        request = parse_constrained_atom("b(X) <- X = 6")
        result = delete_with_dred(example45_program, example45_view, request, solver)
        assert {atom.predicate for atom in result.p_out} == {"a", "b", "c"}
        assert len(result.overestimate) == len(example45_view)

    def test_stdel_view_entry_count_preserved_when_solvable(
        self, example45_program, example45_view, solver
    ):
        # StDel replaces constraints in place; nothing is removed unless the
        # constraint became unsolvable.
        request = parse_constrained_atom("b(X) <- X = 6")
        result = delete_with_stdel(example45_program, example45_view, request, solver)
        assert len(result.view) == len(example45_view)

    def test_stdel_purge_unsolvable_entries(self, example6_program, example6_view, solver):
        request = parse_constrained_atom("p(X, Y) <- X = 'c' & Y = 'd'")
        result = delete_with_stdel(example6_program, example6_view, request, solver)
        # Entries 3, 6 and 7 of the paper's Example 6 become unsolvable.
        assert len(result.removed) == 3
        assert len(result.view) == 4

    def test_stdel_keep_unsolvable_option(self, example6_program, example6_view, solver):
        request = parse_constrained_atom("p(X, Y) <- X = 'c' & Y = 'd'")
        options = EngineOptions(purge_unsolvable=False)
        result = delete_with_stdel(
            example6_program, example6_view, request, solver, options
        )
        assert len(result.view) == 7
        assert result.view.instances(solver) == {
            ("p", ("a", "b")), ("p", ("a", "c")),
            ("a", ("a", "b")), ("a", ("a", "c")),
        }

    def test_dred_input_view_not_mutated(self, example45_program, example45_view, solver):
        request = parse_constrained_atom("b(X) <- X = 6")
        before = example45_view.instances(solver, UNIVERSE)
        delete_with_dred(example45_program, example45_view, request, solver)
        delete_with_stdel(example45_program, example45_view, request, solver)
        assert example45_view.instances(solver, UNIVERSE) == before

    def test_stdel_p_out_pairs_reference_supports(self, example45_program, example45_view, solver):
        request = parse_constrained_atom("b(X) <- X = 6")
        result = delete_with_stdel(example45_program, example45_view, request, solver)
        supports = {str(pair.support) for pair in result.p_out}
        assert supports == {"<3>", "<2, <3>>", "<4, <2, <3>>>"}


class TestMediatedDeletions:
    def test_deletion_with_domain_calls(self):
        from repro.domains import Domain, DomainRegistry

        warehouse = Domain("wh")
        warehouse.register("stock", lambda: {"apple", "pear", "plum"})
        solver = ConstraintSolver(DomainRegistry([warehouse]))
        program = parse_program(
            """
            item(X) <- in(X, wh:stock()).
            listed(X) <- item(X).
            """
        )
        view = compute_tp_fixpoint(program, solver)
        request = parse_constrained_atom("item(X) <- X = 'pear'")
        declarative = recompute_after_deletion(program, view, request, solver)
        stdel = delete_with_stdel(program, view, request, solver)
        dred = delete_with_dred(program, view, request, solver)
        expected = declarative.view.instances(solver)
        assert stdel.view.instances(solver) == expected
        assert dred.view.instances(solver) == expected
        assert ("pear",) not in stdel.view.instances_for("listed", solver)
        assert ("apple",) in stdel.view.instances_for("listed", solver)


class TestStDelKeyConvergence:
    """Narrowing an entry may make it identical to an existing entry.

    Regression for the MaterializedView.replace key-collision handling:
    StDel's step 2 narrows ``a(X) <- X >= 0`` (Support(0)) by
    ``not(X = 5)``; if the view also holds ``a(X) <- X >= 0 & X != 5``
    with the *same* support (as a DRed pass leaves a narrowed entry beside
    its twin), the replacement's key collides with that entry.  The container must
    merge the two -- not corrupt its key index, not abort the deletion.
    """

    def test_stdel_survives_key_convergence(self):
        from repro.datalog import Atom, MaterializedView, Support, ViewEntry

        X = Variable("X")
        solver = ConstraintSolver()
        program = parse_program("a(X) <- X >= 0.")
        view = MaterializedView()
        view.add(ViewEntry(Atom("a", (X,)), compare(X, ">=", 0), Support(0)))
        view.add(
            ViewEntry(
                Atom("a", (X,)),
                conjoin(compare(X, ">=", 0), compare(X, "!=", 5)),
                Support(0),
            )
        )
        request = parse_constrained_atom("a(Y) <- Y = 5")
        result = delete_with_stdel(program, view, request, solver)
        assert result.view.instances_for("a", solver, UNIVERSE) == {
            (v,) for v in UNIVERSE if v != 5
        }
        # The merged view holds one entry per distinct key and stays
        # internally consistent (removal drops exactly one entry).
        for entry in list(result.view):
            assert result.view.remove(entry)
        assert len(result.view) == 0


class TestCrossPredicateSupportCollision:
    """Regression: while external insertions all shared ``Support(0)``, StDel's
    step-3 parent probe for a deleted external entry returned parents derived
    from *other* external insertions too -- including insertions of entirely
    different predicates whose constraints overlap -- and deleting
    ``c(X) <- X = 5`` subtracted the instances from ``d``'s derivation
    through ``b`` as well.  An inserted fact's leaf names the fact, so the
    probe finds the parents of that fact only."""

    def test_deleting_one_external_atom_spares_unrelated_towers(self):
        from repro.maintenance import insert_atom

        solver = ConstraintSolver()
        program = parse_program(
            """
            seedb(X) <- X = 0.
            seedc(X) <- X = 0.
            b(X) <- seedb(X).
            c(X) <- seedc(X).
            d(X) <- b(X).
            e(X) <- c(X).
            """
        )
        view = compute_tp_fixpoint(program, solver)
        # Two external insertions with identical constraints but different
        # predicates: each entry's leaf names its own ``Add`` atom.
        view = insert_atom(
            program, view, parse_constrained_atom("b(X) <- X = 5"), solver
        ).view
        view = insert_atom(
            program, view, parse_constrained_atom("c(X) <- X = 5"), solver
        ).view

        request = parse_constrained_atom("c(X) <- X = 5")
        _, _, stdel = check_both_algorithms(program, view, request, solver)
        # d(5) survives: its derivation used b's insertion, not c's.
        assert (5,) in stdel.view.instances_for("d", solver, UNIVERSE)
        assert (5,) in stdel.view.instances_for("b", solver, UNIVERSE)
        # e(5) is gone with its premise.
        assert (5,) not in stdel.view.instances_for("e", solver, UNIVERSE)
        assert (5,) not in stdel.view.instances_for("c", solver, UNIVERSE)


class TestDeltaRederivationWithDuplicateSupports:
    """Regression: the delta-rederivation seed must include the premise of
    every disturbed derivation.  While external insertions all shared
    Support(0) that took *every* entry carrying a child support, not just the
    first one the support index returned; each inserted edge now has a leaf
    of its own and the probe returns that edge."""

    def test_externally_inserted_base_facts_keep_alternative_paths(self):
        from repro.datalog import parse_program
        from repro.maintenance import insert_atom
        from repro.maintenance.delete_dred import ExtendedDRed
        from repro.maintenance.requests import DeletionRequest
        from repro.workloads import ground_request_atom

        solver = ConstraintSolver()
        program = parse_program(
            """
            t(X, Y) <- e(X, Y).
            t(X, Y) <- e(X, Z), t(Z, Y).
            """
        )
        view = compute_tp_fixpoint(program, solver)
        for edge in (("a", "b"), ("a", "d"), ("d", "b"), ("b", "c")):
            view = insert_atom(program, view, ground_request_atom("e", edge), solver).view

        request = DeletionRequest(ground_request_atom("e", ("a", "b")))
        delta = ExtendedDRed(program, solver).delete(view, request)
        full = ExtendedDRed(
            program, solver, EngineOptions(delta_rederivation=False)
        ).delete(view, request)

        assert delta.view.instances(solver) == full.view.instances(solver)
        # t(a,b) and t(a,c) survive via a -> d -> b.
        assert ("a", "b") in delta.view.instances_for("t", solver)
        assert ("a", "c") in delta.view.instances_for("t", solver)


class TestSubsumptionRespectsPurgeOption:
    """Regression: the post-rederivation subsumption pass must not remove
    entries narrowed to an unsolvable constraint when purging is off -- an
    empty instance set is vacuously subsumed by any same-support sibling,
    but dropping it is ``purge_unsolvable``'s decision, not subsumption's."""

    def test_unsolvable_narrow_survives_with_purging_off(self):
        from repro.maintenance import insert_atom
        from repro.maintenance.delete_dred import ExtendedDRed
        from repro.maintenance.requests import DeletionRequest
        from repro.datalog import parse_program
        from repro.datalog.atoms import ConstrainedAtom
        from repro.datalog.atoms import Atom
        from repro.constraints.terms import Variable

        solver = ConstraintSolver()
        program = parse_program("q(X) <- X >= 200.")
        view = compute_tp_fixpoint(program, solver)
        x = Variable("X")
        for low, high in ((0, 10), (20, 30)):
            atom = ConstrainedAtom(
                Atom("p", (x,)), conjoin(compare(x, ">=", low), compare(x, "<=", high))
            )
            view = insert_atom(program, view, atom, solver).view
        deleted = ConstrainedAtom(
            Atom("p", (x,)), conjoin(compare(x, ">=", 0), compare(x, "<=", 10))
        )
        result = ExtendedDRed(
            program, solver, EngineOptions(purge_unsolvable=False)
        ).delete(view, DeletionRequest(deleted))
        # Both external entries are still present: the fully-deleted one
        # narrowed to an unsolvable constraint, the disjoint one untouched.
        assert len(result.view.entries_for("p")) == 2
        assert result.stats.subsumed_rederived == 0

    def test_overlapping_external_duplicates_are_never_subsumed(self):
        # Regression: with exclude_existing=False two external insertions
        # overlap; after a deletion narrows both, one subsumes the other
        # syntactically -- but they are *distinct derivations* (each leaf
        # names its own ``Add`` atom, so neither is the other's same-support
        # sibling) and the subsumption pass must leave them alone
        # (duplicate semantics, and key-parity with StDel).
        from repro.maintenance import insert_atom
        from repro.maintenance.delete_dred import ExtendedDRed
        from repro.maintenance.delete_stdel import StraightDelete
        from repro.maintenance.requests import DeletionRequest
        from repro.datalog import parse_program
        from repro.datalog.atoms import Atom, ConstrainedAtom
        from repro.constraints.terms import Variable

        solver = ConstraintSolver()
        program = parse_program("q(X) <- X >= 200.")
        view = compute_tp_fixpoint(program, solver)
        x = Variable("X")
        keep_duplicates = EngineOptions(exclude_existing=False)
        for low, high in ((0, 50), (0, 10)):
            atom = ConstrainedAtom(
                Atom("p", (x,)), conjoin(compare(x, ">=", low), compare(x, "<=", high))
            )
            view = insert_atom(program, view, atom, solver, keep_duplicates).view
        deleted = ConstrainedAtom(
            Atom("p", (x,)), conjoin(compare(x, ">=", 3), compare(x, "<=", 4))
        )
        request = DeletionRequest(deleted)
        dred = ExtendedDRed(program, solver).delete(view, request)
        stdel = StraightDelete(program, solver).delete(view, request)
        assert len(dred.view.entries_for("p")) == 2
        assert len(stdel.view.entries_for("p")) == 2
        assert dred.stats.subsumed_rederived == 0
