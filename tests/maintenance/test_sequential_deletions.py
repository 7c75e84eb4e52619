"""Sequences of deletions: DRed's rewritten-program requirement, StDel's lack of one.

``delete_dred``'s module docstring states the requirement: because step 3
rederives from the *program*, a later deletion must run against the program
produced by the earlier deletion's rewrite (``DRedResult.rewritten_program``);
otherwise rederivation can resurrect instances the earlier request removed.
Rederivation re-fires the rule clauses of the predicates ``P_OUT`` touches
and only those fact clauses a ``P_OUT`` atom overlaps, so the resurrection
needs an original clause the later request overlaps: ``a(X) <- 1 <= X & X
<= 2`` still derives ``a(1)`` when ``X = 2`` is deleted, while the separate
fact clause ``a(X) <- X = 1`` is not re-fired by that request at all.
Straight Delete never rederives, so it has no such requirement.  These
tests verify both halves of that statement.
"""

from __future__ import annotations

import pytest

from repro.constraints import ConstraintSolver
from repro.datalog import compute_tp_fixpoint, parse_constrained_atom, parse_program
from repro.maintenance import (
    DeletionRequest,
    ExtendedDRed,
    InsertionRequest,
    StraightDelete,
    recompute_after_deletion,
)
from repro.stream import StreamOptions, StreamScheduler
from repro.workloads import ground_request_atom, make_layered_program

PROGRAM = """
a(X) <- X = 1.
a(X) <- X = 2.
b(X) <- a(X).
"""

#: One clause holding both instances: a deletion of either overlaps it.
RANGE_PROGRAM = """
a(X) <- 1 <= X & X <= 2.
b(X) <- a(X).
"""

UNIVERSE = range(0, 5)


@pytest.fixture
def solver():
    return ConstraintSolver()


@pytest.fixture
def program():
    return parse_program(PROGRAM)


@pytest.fixture
def view(program, solver):
    return compute_tp_fixpoint(program, solver)


def delete_first(program, view, solver):
    algorithm = ExtendedDRed(program, solver)
    request = DeletionRequest(parse_constrained_atom("a(X) <- X = 1"))
    return algorithm.delete(view, request)


SECOND_REQUEST = "a(X) <- X = 2"


class TestSequentialDRed:
    def test_initial_view(self, view, solver):
        assert view.instances_for("a", solver, UNIVERSE) == {(1,), (2,)}
        assert view.instances_for("b", solver, UNIVERSE) == {(1,), (2,)}

    def test_first_deletion_removes_instances(self, program, view, solver):
        first = delete_first(program, view, solver)
        assert first.view.instances_for("a", solver, UNIVERSE) == {(2,)}
        assert first.view.instances_for("b", solver, UNIVERSE) == {(2,)}

    def test_second_deletion_against_rewritten_program_does_not_resurrect(
        self, program, view, solver
    ):
        first = delete_first(program, view, solver)
        # The documented requirement: run deletion 2 against the program the
        # first deletion's rewrite produced.
        second_algorithm = ExtendedDRed(first.rewritten_program, solver)
        second = second_algorithm.delete(
            first.view, DeletionRequest(parse_constrained_atom(SECOND_REQUEST))
        )
        assert second.view.instances_for("a", solver, UNIVERSE) == frozenset()
        assert second.view.instances_for("b", solver, UNIVERSE) == frozenset()

    def test_second_deletion_against_original_program_resurrects(self, solver):
        # Ignoring the requirement: the original clause ``a(X) <- 1 <= X &
        # X <= 2`` overlaps the second request, so rederivation re-fires it
        # and brings the instance the first request deleted back -- the
        # failure mode the module docstring warns about.
        program = parse_program(RANGE_PROGRAM)
        view = compute_tp_fixpoint(program, solver)
        first = delete_first(program, view, solver)
        assert first.view.instances(solver, UNIVERSE) == {("a", (2,)), ("b", (2,))}
        second = DeletionRequest(parse_constrained_atom(SECOND_REQUEST))
        wrong = ExtendedDRed(program, solver).delete(first.view, second)
        assert wrong.view.instances(solver, UNIVERSE) == {("a", (1,)), ("b", (1,))}
        right = ExtendedDRed(first.rewritten_program, solver).delete(first.view, second)
        assert right.view.instances(solver, UNIVERSE) == frozenset()

    def test_a_fact_clause_no_p_out_atom_overlaps_is_not_refired(
        self, program, view, solver
    ):
        # ``a(X) <- X = 1`` is not a head candidate of the second request's
        # P_OUT atoms, so rederivation leaves it out of the program it runs:
        # against the original program nothing brings ``a(1)`` back.
        first = delete_first(program, view, solver)
        wrong = ExtendedDRed(program, solver).delete(
            first.view, DeletionRequest(parse_constrained_atom(SECOND_REQUEST))
        )
        assert wrong.view.instances(solver, UNIVERSE) == frozenset()

    def test_rewritten_program_chain_matches_recomputation(
        self, program, view, solver
    ):
        first = delete_first(program, view, solver)
        second = ExtendedDRed(first.rewritten_program, solver).delete(
            first.view, DeletionRequest(parse_constrained_atom(SECOND_REQUEST))
        )
        reference = recompute_after_deletion(
            first.rewritten_program,
            first.view,
            parse_constrained_atom(SECOND_REQUEST),
            solver,
        )
        assert second.view.instances(solver, UNIVERSE) == reference.view.instances(
            solver, UNIVERSE
        )


class TestSequentialStDel:
    def test_stdel_needs_no_program_rewrite_between_deletions(
        self, program, view, solver
    ):
        # StDel never rederives, so running both deletions against the
        # *original* program is correct -- the practical advantage the
        # benchmarks quantify.
        algorithm = StraightDelete(program, solver)
        first = algorithm.delete(
            view, DeletionRequest(parse_constrained_atom("a(X) <- X = 1"))
        )
        second = algorithm.delete(
            first.view, DeletionRequest(parse_constrained_atom(SECOND_REQUEST))
        )
        assert second.view.instances_for("a", solver, UNIVERSE) == frozenset()
        assert second.view.instances_for("b", solver, UNIVERSE) == frozenset()


class TestDeleteReinsertHistory:
    """Theorems 1-3 over five-request histories of one stream.

    ``layer1_0(X) <- base1(X), base1(X)`` over two re-inserted facts gave
    two parents the same support while every inserted fact carried the one
    leaf ``<0>``, and StDel took one for the other: after the fifth request
    ``layer1_0(7)`` was still in the view.  PR 12's history left
    ``layer1_1(6)`` the same way.  A leaf now names the fact it inserted.
    """

    HISTORY = (
        ("delete", "base1", 0),
        ("insert", "base1", 0),
        ("delete", "base1", 7),
        ("insert", "base1", 7),
        ("delete", "base1", 7),
    )
    PR12_HISTORY = (
        ("delete", "base0", 6),
        ("insert", "base0", 6),
        ("delete", "base1", 10),
        ("insert", "base1", 10),
        ("delete", "base1", 6),
    )

    @pytest.mark.parametrize(
        "deletion_algorithm, history",
        [
            pytest.param("dred", HISTORY, id="dred"),
            pytest.param("stdel", HISTORY, id="stdel"),
            pytest.param("dred", PR12_HISTORY, id="dred-pr12"),
            pytest.param("stdel", PR12_HISTORY, id="stdel-pr12"),
        ],
    )
    def test_view_equals_recomputation_after_five_requests(
        self, deletion_algorithm, history
    ):
        spec = make_layered_program(base_facts=12)
        scheduler = StreamScheduler(
            spec.program,
            ConstraintSolver(),
            options=StreamOptions(
                max_workers=1, deletion_algorithm=deletion_algorithm
            ),
        )
        for kind, predicate, value in history:
            atom = ground_request_atom(predicate, (value,))
            request = DeletionRequest(atom) if kind == "delete" else InsertionRequest(atom)
            assert scheduler.apply_batch((request,)).ok
        assert scheduler.verify()
