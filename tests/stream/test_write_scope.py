"""Strata and the write scope a batch is checked out to.

The analyzer's components are the program's strata (recursion is confined
to one), and its write closures bound how far an update can propagate.
The scheduler checks a whole batch out once, to the union of its
requests' write closures.
"""

from __future__ import annotations

from repro.analysis import analyze_program
from repro.constraints import ConstraintSolver
from repro.datalog import parse_constrained_atom, parse_program
from repro.maintenance import DeletionRequest, InsertionRequest
from repro.stream import StreamScheduler

LAYERED = """
left(X) <- X = 1.
right(X) <- X = 2.
mid(X) <- left(X).
top(X) <- mid(X).
other(X) <- right(X).
"""

RECURSIVE = """
edge(X, Y) <- X = 1 & Y = 2.
path(X, Y) <- edge(X, Y).
path(X, Y) <- edge(X, Z), path(Z, Y).
"""

JOINED = """
a(X) <- X = 1.
b(X) <- X = 2.
both(X) <- a(X), b(X).
"""


def deletion(text: str) -> DeletionRequest:
    return DeletionRequest(parse_constrained_atom(text))


def insertion(text: str) -> InsertionRequest:
    return InsertionRequest(parse_constrained_atom(text))


def write_scope(rules, payloads):
    scheduler = StreamScheduler(parse_program(rules), ConstraintSolver())
    return scheduler.prepare_batch(payloads).write_scope


class TestSccs:
    def test_sccs_bottom_up_and_recursion_confined(self):
        program = parse_program(RECURSIVE)
        components = program.predicate_sccs()
        assert ("path",) in components  # the recursive component
        assert components.index(("edge",)) < components.index(("path",))

    def test_mutually_recursive_predicates_share_a_component(self):
        program = parse_program(
            """
            base(X) <- X = 1.
            even(X) <- base(X).
            even(X) <- odd(X).
            odd(X) <- even(X).
            """
        )
        components = program.predicate_sccs()
        assert ("even", "odd") in components

    def test_every_predicate_gets_a_stratum(self):
        components = analyze_program(parse_program(LAYERED)).components
        levels = {
            predicate: index
            for index, component in enumerate(components)
            for predicate in component
        }
        assert levels["left"] < levels["mid"] < levels["top"]
        assert levels["right"] < levels["other"]


class TestClosures:
    def test_upward_closure_follows_dependents(self):
        closures = analyze_program(parse_program(LAYERED)).write_closures
        assert closures["left"] == {"left", "mid", "top"}
        assert closures["right"] == {"right", "other"}
        assert closures["top"] == {"top"}

    def test_recursive_closure_contains_the_component(self):
        closures = analyze_program(parse_program(RECURSIVE)).write_closures
        assert closures["edge"] == {"edge", "path"}


class TestWriteScope:
    def test_a_batch_is_checked_out_to_the_union_of_its_closures(self):
        # Two independent towers are one batch, one pass, one checkout.
        scope = write_scope(
            LAYERED,
            (
                deletion("left(X) <- X = 1"),
                deletion("right(X) <- X = 2"),
                insertion("left(X) <- X = 9"),
            ),
        )
        assert scope == {"left", "mid", "top", "right", "other"}

    def test_a_joined_clause_puts_its_head_in_both_closures(self):
        scope = write_scope(
            JOINED, (deletion("a(X) <- X = 1"), deletion("b(X) <- X = 2"))
        )
        assert scope == {"a", "b", "both"}

    def test_a_predicate_the_program_lacks_is_its_own_scope(self):
        scope = write_scope(LAYERED, (insertion("fresh(X) <- X = 3"),))
        assert scope == {"fresh"}

    def test_a_notice_only_batch_writes_nothing(self):
        from repro.stream import ExternalChangeNotice

        assert write_scope(LAYERED, (ExternalChangeNotice("dbase"),)) == frozenset()

    def test_request_order_preserved_in_the_pass(self):
        scheduler = StreamScheduler(parse_program(LAYERED), ConstraintSolver())
        first = deletion("left(X) <- X = 1")
        second = deletion("mid(X) <- X = 1")
        prepared = scheduler.prepare_batch((first, second))
        assert prepared.coalesced.deletions == (first, second)
        assert prepared.write_scope == {"left", "mid", "top"}
