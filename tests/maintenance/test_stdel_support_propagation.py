"""StDel step 3 over the child-support index.

Regression tests for the delta-proportional propagation rewrite: the
per-``P_OUT``-pair scan of ``working.entries`` became a probe of the
child-support index, and the ``(support, position, pair)`` dedup set is
built once for the whole propagation.  A diamond of supports sharing a
premise is the shape that would double-subtract if the dedup keys were
rebuilt per pass or the probe returned stale parents.
"""

from __future__ import annotations

import pytest

from repro.constraints import ConstraintSolver, Variable, compare, conjoin
from repro.constraints.ast import TRUE
from repro.datalog import Atom, compute_tp_fixpoint
from repro.datalog.clauses import Clause
from repro.datalog.program import ConstrainedDatabase
from repro.maintenance import delete_with_stdel, recompute_after_deletion
from repro.workloads import (
    deletion_stream,
    ground_request_atom,
    make_interval_join_program,
)

X = Variable("X")


def interval_fact(predicate: str, low: int, high: int) -> Clause:
    return Clause(
        Atom(predicate, (X,)),
        conjoin(compare(X, ">=", low), compare(X, "<=", high)),
        (),
    )


def rule(head: str, *body: str) -> Clause:
    return Clause(Atom(head, (X,)), TRUE, tuple(Atom(name, (X,)) for name in body))


@pytest.fixture
def solver():
    return ConstraintSolver()


def view_keys(view):
    return sorted(str(entry.key()) for entry in view)


def scanned_without_the_index(view, stats) -> int:
    """What step 3 compared before the child-support index: every view
    entry against every ``P_OUT`` pair (the seed atoms and their
    unfolding)."""
    return len(view) * (stats.seed_atoms + stats.unfolded_atoms)


class TestDiamondPropagation:
    """``top <- b, c`` with ``b <- a`` and ``c <- a``: two paths, one premise."""

    def build(self):
        program = ConstrainedDatabase(
            [
                interval_fact("a", 0, 9),
                rule("b", "a"),
                rule("c", "a"),
                rule("top", "b", "c"),
            ]
        )
        return program

    def test_diamond_support_does_not_double_subtract(self, solver):
        program = self.build()
        view = compute_tp_fixpoint(program, solver)
        request = ground_request_atom("a", (5,))
        result = delete_with_stdel(program, view, request, solver)
        recomputed = recompute_after_deletion(program, view, request, solver)
        assert view_keys(result.view) == view_keys(recomputed.view)
        universe = range(0, 12)
        top = result.view.instances_for("top", solver, universe)
        assert top == {(v,) for v in universe if v <= 9 and v != 5}
        # Each affected (parent support, premise position, pair) is
        # processed at most once: a + b + c + top via the b-path; the
        # c-path's second subtraction at top is pruned by the paper's
        # applicability condition (c) -- the instances are already gone --
        # which is precisely the no-double-subtract property.
        assert result.stats.replaced_entries == 4

    def test_repeated_premise_positions_are_each_processed(self, solver):
        # ``twice <- a, a``: the same child support sits at two body
        # positions; both must be rewritten, neither more than once.
        program = ConstrainedDatabase(
            [interval_fact("a", 0, 9), rule("twice", "a", "a")]
        )
        view = compute_tp_fixpoint(program, solver)
        request = ground_request_atom("a", (5,))
        result = delete_with_stdel(program, view, request, solver)
        recomputed = recompute_after_deletion(program, view, request, solver)
        assert view_keys(result.view) == view_keys(recomputed.view)
        assert result.view.instances(solver, range(0, 12)) == recomputed.view.instances(
            solver, range(0, 12)
        )


class TestSupportProbeCounters:
    def test_probes_are_bounded_by_the_replaced_scan(self, solver):
        program = ConstrainedDatabase(
            [
                interval_fact("a", 0, 9),
                interval_fact("a", 3, 12),
                rule("b", "a"),
                rule("top", "b", "b"),
            ]
        )
        view = compute_tp_fixpoint(program, solver)
        request = ground_request_atom("a", (5,))
        result = delete_with_stdel(program, view, request, solver)
        probes = result.stats.support_probes
        assert probes > 0
        assert probes <= scanned_without_the_index(view, result.stats)

    def test_untouched_derivations_cost_no_probes(self, solver):
        # Deleting instances only carried by a leaf nothing depends on:
        # step 3 probes find no parents at all.
        program = ConstrainedDatabase(
            [
                interval_fact("a", 0, 9),
                interval_fact("lonely", 50, 60),
                rule("b", "a"),
            ]
        )
        view = compute_tp_fixpoint(program, solver)
        request = ground_request_atom("lonely", (55,))
        result = delete_with_stdel(program, view, request, solver)
        assert result.stats.support_probes == 0
        assert scanned_without_the_index(view, result.stats) > 0

    def test_interval_joins_probe_at_most_a_quarter_of_the_scan(self, solver):
        # Ground x interval joins: many overlapping entries are affected,
        # and still the probed match set is a small part of the view.
        spec = make_interval_join_program(
            ground_facts=6, intervals_per_predicate=3, pairs=2, width=40, seed=2
        )
        view = compute_tp_fixpoint(spec.program, solver)
        request = deletion_stream(spec, 1, seed=2, predicate="iv0")[0].atom
        stats = delete_with_stdel(spec.program, view, request, solver).stats
        assert 0 < 4 * stats.support_probes <= scanned_without_the_index(view, stats)
