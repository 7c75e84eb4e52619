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
    DeletionRequest,
    EngineOptions,
    delete_with_dred,
    delete_with_stdel,
    recompute_after_deletion,
)
from repro.stream import StreamOptions, StreamScheduler

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


def view_keys(view):
    """Every entry's ``key()`` (atom, canonical constraint, support), sorted."""
    return sorted(map(str, (entry.key() for entry in view)))


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

    # X = 2 lies below both thresholds of Example 4/5 (X >= 3, X >= 5),
    # 3 and 5 sit on them, and 14 is the universe's last point.
    @pytest.mark.parametrize("value", [2, 3, 5, 14])
    @pytest.mark.parametrize("predicate", ["a", "b", "c"])
    def test_delete_point_at_a_threshold(
        self, example45_program, example45_view, solver, predicate, value
    ):
        request = parse_constrained_atom(f"{predicate}(X) <- X = {value}")
        _, dred, stdel = check_both_algorithms(
            example45_program, example45_view, request, solver
        )
        assert (value,) not in stdel.view.instances_for(predicate, solver, UNIVERSE)
        assert (value,) not in dred.view.instances_for(predicate, solver, UNIVERSE)

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
        # Step 4 removes exactly the paper's entries 3, 6 and 7 of Example 6
        # (p(c, d) and the two a-entries derived through it), each left
        # with an unsolvable constraint.
        assert {str(entry.support) for entry in result.removed} == {
            "<3>", "<4, <3>>", "<5, <2>, <4, <3>>>",
        }
        assert not any(solver.is_satisfiable(entry.constraint) for entry in result.removed)
        assert len(result.view) == 4
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


class TestReinsertionAfterPartialDeletion:
    """Lemma 1 across insert, partial delete, insert again.

    The first insertion files ``p(X) <- 0 <= X <= 10`` under a leaf naming
    that ``Add`` atom; the deletion narrows it to exclude 4; the second
    insertion's ``Add`` set is the one missing instance, a different atom
    under a leaf of its own.  No two entries of ``p`` share a support.
    """

    @pytest.mark.parametrize("algorithm", ("stdel", "dred"))
    def test_reinserted_atom_files_no_second_entry_under_one_leaf(self, algorithm):
        from repro.maintenance import DeletionRequest, InsertionRequest
        from repro.stream import StreamOptions, StreamScheduler

        solver = ConstraintSolver()
        program = parse_program("q(X) <- p(X).")
        scheduler = StreamScheduler(
            program,
            solver,
            options=StreamOptions(max_workers=1, deletion_algorithm=algorithm),
        )
        interval = parse_constrained_atom("p(X) <- X >= 0 & X <= 10")
        for request in (
            InsertionRequest(interval),
            DeletionRequest(parse_constrained_atom("p(X) <- X = 4")),
            InsertionRequest(interval),
        ):
            assert scheduler.apply_batch((request,)).ok
        supports = [entry.support for entry in scheduler.view.entries_for("p")]
        assert len(supports) == len(set(supports))
        assert scheduler.query("p", UNIVERSE) == {(v,) for v in range(0, 11)}
        assert scheduler.verify(UNIVERSE)


class TestSubsumptionRespectsPurgeOption:
    """The purge and the post-rederivation subsumption pass remove different
    entries.  An entry narrowed to an unsolvable constraint goes to the
    purge (StDel's step 4, DRed's final sweep), which always runs; an empty
    instance set is vacuously subsumed by any same-support sibling, but
    that is not subsumption's to count.  And subsumption drops only
    same-support siblings, never another derivation of the same instances."""

    def test_unsolvable_narrow_is_purged_not_subsumed(self, solver):
        from repro.maintenance import DeletionRequest, ExtendedDRed, insert_atom

        program = parse_program("q(X) <- X >= 200.")
        view = compute_tp_fixpoint(program, solver)
        for text in ("p(X) <- X >= 0 & X <= 10", "p(X) <- X >= 20 & X <= 30"):
            view = insert_atom(program, view, parse_constrained_atom(text), solver).view
        request = DeletionRequest(parse_constrained_atom("p(X) <- X >= 0 & X <= 10"))
        result = ExtendedDRed(program, solver).delete(view, request)
        # The fully deleted external entry is purged; the disjoint one stays.
        assert [str(e.constraint) for e in result.view.entries_for("p")] == [
            "X >= 20 & X <= 30"
        ]
        assert result.stats.subsumed_rederived == 0
        stdel = delete_with_stdel(program, view, request.atom, solver)
        assert view_keys(stdel.view) == view_keys(result.view)

    def test_overlapping_external_duplicates_are_never_subsumed(self, solver):
        # An external q entry and a q entry derived from an external p
        # overlap; after a deletion narrows both, the derived one is
        # syntactically subsumed by the external one -- but they are
        # *distinct derivations* (different supports), so the subsumption
        # pass leaves them alone (duplicate semantics, and key parity with
        # StDel).
        from repro.maintenance import (
            DeletionRequest,
            ExtendedDRed,
            StraightDelete,
            insert_atom,
        )

        program = parse_program("q(X) <- p(X). r(X) <- X >= 200.")
        view = compute_tp_fixpoint(program, solver)
        for text in ("q(X) <- X >= 0 & X <= 50", "p(X) <- X >= 0 & X <= 10"):
            view = insert_atom(program, view, parse_constrained_atom(text), solver).view
        assert len(view.entries_for("q")) == 2
        request = DeletionRequest(parse_constrained_atom("q(X) <- X >= 3 & X <= 4"))
        dred = ExtendedDRed(program, solver).delete(view, request)
        stdel = StraightDelete(program, solver).delete(view, request)
        assert len(dred.view.entries_for("q")) == 2
        assert len(stdel.view.entries_for("q")) == 2
        assert dred.stats.subsumed_rederived == 0
        assert view_keys(dred.view) == view_keys(stdel.view)


#: ``h``'s clause joins two unconstrained facts; deleting one point of ``p``
#: must keep every other value.
NEGATION_SCOPE_RULES = """
p(X) <- true.
r(X) <- true.
h(X) <- p(X), r(X).
"""


@pytest.mark.xfail(
    strict=True,
    reason=(
        "projection._scope_negations_uncached treats a head variable that "
        "appears only inside the negation as local to it, so the rewritten "
        "fact keeps no instance of p"
    ),
)
@pytest.mark.parametrize("algorithm", ["stdel", "dred"])
def test_deleting_one_point_of_an_unconstrained_fact_keeps_the_rest(algorithm):
    scheduler = StreamScheduler(
        parse_program(NEGATION_SCOPE_RULES),
        ConstraintSolver(),
        options=StreamOptions(deletion_algorithm=algorithm),
    )
    request = DeletionRequest(parse_constrained_atom("p(X) <- X = 5"))
    assert scheduler.apply_batch((request,)).ok
    universe = range(11)
    assert scheduler.query("p", universe) == {(v,) for v in universe if v != 5}
