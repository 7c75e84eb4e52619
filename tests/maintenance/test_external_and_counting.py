"""Unit tests for external-change maintenance (Section 4) and the counting baseline."""

from __future__ import annotations

import pytest

from repro.constraints import ConstraintSolver
from repro.datalog import compute_tp_fixpoint, parse_constrained_atom, parse_program
from repro.domains import DomainClock, DomainRegistry, VersionedDomain, function_delta
from repro.errors import CountingDivergenceError, MaintenanceError
from repro.maintenance import (
    CountingMaintenance,
    TpExternalMaintenance,
    WpExternalMaintenance,
    delete_with_stdel,
)


@pytest.fixture
def versioned_setup():
    clock = DomainClock()
    domain = VersionedDomain("ext", clock)
    domain.register_versioned("g", lambda key: {"a"} if key == "b" else set())
    domain.set_behavior("g", 1, lambda key: set())
    domain.set_behavior("g", 2, lambda key: {"a", "z"} if key == "b" else set())
    registry = DomainRegistry([domain])
    solver = ConstraintSolver(registry)
    program = parse_program(
        """
        b(X) <- in(X, ext:g('b')).
        watched(X) <- b(X).
        """
    )
    return clock, domain, registry, solver, program


class TestWpAgainstTp:
    def test_example7_tp_loses_entry_after_source_change(self, versioned_setup):
        clock, domain, registry, solver, program = versioned_setup
        tp = TpExternalMaintenance(program, solver)
        assert tp.query("b") == {("a",)}
        clock.advance()
        report = tp.on_source_changed()
        assert report.strategy == "tp-rematerialize"
        assert report.view_changed
        assert tp.query("b") == frozenset()

    def test_example8_wp_view_is_syntactically_invariant(self, versioned_setup):
        clock, domain, registry, solver, program = versioned_setup
        wp = WpExternalMaintenance(program, solver)
        entries_before = tuple(str(entry) for entry in wp.view)
        clock.advance()
        report = wp.on_source_changed()
        entries_after = tuple(str(entry) for entry in wp.view)
        assert report.recomputed_entries == 0
        assert not report.view_changed
        assert entries_before == entries_after

    def test_corollary1_queries_always_agree(self, versioned_setup):
        clock, domain, registry, solver, program = versioned_setup
        tp = TpExternalMaintenance(program, solver)
        wp = WpExternalMaintenance(program, solver)
        for _ in range(3):
            assert tp.query("b") == wp.query("b")
            assert tp.query("watched") == wp.query("watched")
            clock.advance()
            tp.on_source_changed()
            wp.on_source_changed()
        assert wp.query("watched") == {("a",), ("z",)}

    def test_reports_include_delta_sizes(self, versioned_setup):
        clock, domain, registry, solver, program = versioned_setup
        wp = WpExternalMaintenance(program, solver)
        clock.advance()
        deltas = (function_delta(domain, "g", ("b",), 0, 1),)
        report = wp.on_source_changed(deltas)
        assert report.removed_facts == 1 and report.added_facts == 0
        clock.advance()
        deltas = (function_delta(domain, "g", ("b",), 1, 2),)
        report = wp.on_source_changed(deltas)
        assert report.added_facts == 2

    def test_function_delta_matches_paper_equations(self, versioned_setup):
        _, domain, _, _, _ = versioned_setup
        delta = function_delta(domain, "g", ("b",), 0, 2)
        assert delta.added == ("z",)
        assert delta.removed == ()

    def test_relational_source_change_under_wp(self):
        from repro.domains import make_relational_domain

        paradox = make_relational_domain(
            "paradox", {"phonebook": (("name", "city"), [("ann", "dc")])}
        )
        solver = ConstraintSolver(DomainRegistry([paradox]))
        program = parse_program(
            "local(Y) <- in(A, paradox:select_eq('phonebook', 'city', 'dc')) & "
            "in(Y, paradox:field(A, 'name'))."
        )
        wp = WpExternalMaintenance(program, solver)
        assert wp.query("local") == {("ann",)}
        paradox.database.insert("phonebook", ("bob", "dc"))
        wp.on_source_changed()
        assert wp.query("local") == {("ann",), ("bob",)}


class TestNoticeProtocol:
    """``on_source_changed`` is the change notice of the Section-4 classes:
    under a mediator-built (call-remembering) registry it is what reaches a
    source whose functions read state no version follows."""

    @pytest.mark.parametrize("strategy", [TpExternalMaintenance, WpExternalMaintenance])
    def test_on_source_changed_reaches_an_untracked_source(
        self, strategy, untracked_sources
    ):
        from repro.domains.versioned import FunctionDelta

        mediator, shelves, executed = untracked_sources
        maintained = strategy(mediator.program, mediator.solver)

        def read():
            return maintained.query("listed"), maintained.query("priced")

        def delta(domain):
            return FunctionDelta(domain, "all", (), (), ())

        assert read() == ({("ann",)}, {("pen",)})
        cold = executed()
        shelves["book"].add("bob")  # behind the registry's back
        assert read() == ({("ann",)}, {("pen",)}) and executed() == cold
        maintained.on_source_changed([delta("shop")])  # somebody else's change
        assert read() == ({("ann",)}, {("pen",)})
        assert executed() == (cold[0], cold[1] + 1)
        maintained.on_source_changed([delta("book")])
        assert read() == ({("ann",), ("bob",)}, {("pen",)})
        assert executed() == (cold[0] + 1, cold[1] + 1)
        shelves["book"].discard("ann")
        shelves["shop"].add("ink")
        assert read() == ({("ann",), ("bob",)}, {("pen",)})
        maintained.on_source_changed([delta("a-table-not-a-domain")])
        assert read() == ({("bob",)}, {("ink",), ("pen",)})
        shelves["shop"].discard("pen")
        maintained.on_source_changed()  # no deltas: nothing to attribute
        assert read() == ({("bob",)}, {("ink",)})
        assert executed() == (cold[0] + 3, cold[1] + 3)


class TestCountingBaseline:
    def test_counts_on_nonrecursive_ground_program(self, solver):
        program = parse_program(
            """
            base(X) <- X = 1.
            base(X) <- X = 2.
            left(X) <- base(X).
            right(X) <- base(X).
            top(X) <- left(X), right(X).
            """
        )
        counting = CountingMaintenance(program, solver)
        view = counting.materialize()
        assert view.count_of(("base", (1,))) == 1
        assert view.count_of(("top", (1,))) == 1
        assert len(view) == 8

    def test_multiple_derivations_counted(self, solver):
        program = parse_program(
            """
            base(X) <- X = 1.
            other(X) <- X = 1.
            both(X) <- base(X).
            both(X) <- other(X).
            """
        )
        view = CountingMaintenance(program, solver).materialize()
        assert view.count_of(("both", (1,))) == 2

    def test_deletion_decrements_until_zero(self, solver):
        program = parse_program(
            """
            base(X) <- X = 1.
            other(X) <- X = 1.
            both(X) <- base(X).
            both(X) <- other(X).
            """
        )
        counting = CountingMaintenance(program, solver)
        view = counting.materialize()
        result = counting.delete(view, parse_constrained_atom("base(X) <- X = 1"))
        assert result.view.count_of(("both", (1,))) == 1
        assert ("base", (1,)) in result.removed_facts

    def test_counting_agrees_with_stdel_on_ground_views(self, solver):
        program = parse_program(
            """
            e(X, Y) <- X = 'n0' & Y = 'n1'.
            e(X, Y) <- X = 'n1' & Y = 'n2'.
            hop2(X, Y) <- e(X, Z), e(Z, Y).
            """
        )
        counting = CountingMaintenance(program, solver)
        counting_view = counting.materialize()
        request = parse_constrained_atom("e(X, Y) <- X = 'n0' & Y = 'n1'")
        counted = counting.delete(counting_view, request)

        full_view = compute_tp_fixpoint(program, solver)
        stdel = delete_with_stdel(program, full_view, request, solver)
        stdel_facts = {
            (predicate, values) for predicate, values in stdel.view.instances(solver)
        }
        assert set(counted.view.facts()) == stdel_facts

    def test_divergence_on_cyclic_recursion(self, solver):
        program = parse_program(
            """
            e(X, Y) <- X = 'a' & Y = 'b'.
            e(X, Y) <- X = 'b' & Y = 'a'.
            p(X, Y) <- e(X, Y).
            p(X, Y) <- e(X, Z), p(Z, Y).
            """
        )
        counting = CountingMaintenance(program, solver)
        with pytest.raises(CountingDivergenceError):
            counting.materialize()

    def test_acyclic_recursion_is_fine(self, example6_program, solver):
        counting = CountingMaintenance(example6_program, solver)
        view = counting.materialize()
        assert view.count_of(("a", ("a", "d"))) == 1

    def test_non_ground_view_rejected(self, example45_program, solver):
        counting = CountingMaintenance(example45_program, solver)
        with pytest.raises(MaintenanceError):
            counting.materialize()

    def test_non_ground_deletion_rejected(self, solver):
        program = parse_program("base(X) <- X = 1.")
        counting = CountingMaintenance(program, solver)
        view = counting.materialize()
        with pytest.raises(MaintenanceError):
            counting.delete(view, parse_constrained_atom("base(X) <- X >= 0"))
