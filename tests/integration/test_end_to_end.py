"""Integration tests: whole-system scenarios across several subpackages."""

from __future__ import annotations


from repro.constraints import ConstraintSolver
from repro.datalog import compute_tp_fixpoint
from repro.maintenance import (
    delete_with_dred,
    delete_with_stdel,
    full_recompute,
    insert_atom,
    recompute_after_deletion,
)
from repro.mediator import MediatorBuilder
from repro.workloads import (
    deletion_stream,
    make_law_enforcement_scenario,
    make_layered_program,
    make_transitive_closure_program,
    make_random_graph_edges,
    mixed_stream,
)


class TestUpdateStreamsAgainstDeclarativeSemantics:
    """Replay whole update streams and compare against recomputation."""

    def test_mixed_stream_on_layered_program(self):
        solver = ConstraintSolver()
        spec = make_layered_program(base_facts=6, layers=2, predicates_per_layer=2, fanin=2, seed=4)
        stream = mixed_stream(spec, deletions=3, insertions=3, seed=9)

        view = compute_tp_fixpoint(spec.program, solver)
        program = spec.program
        from repro.maintenance import DeletionRequest
        from repro.maintenance import deletion_rewrite, insertion_rewrite, build_add_set

        for request in stream.requests:
            if isinstance(request, DeletionRequest):
                result = delete_with_stdel(program, view, request.atom, solver)
                view = result.view
                program = deletion_rewrite(program, (request.atom,))
            else:
                add_atoms = build_add_set(view, request.atom, solver)
                result = insert_atom(program, view, request.atom, solver)
                view = result.view
                program = insertion_rewrite(program, add_atoms)

        expected = full_recompute(program, solver).view
        assert view.instances(solver) == expected.instances(solver)

    def test_repeated_deletions_on_transitive_closure(self):
        solver = ConstraintSolver()
        edges = make_random_graph_edges(7, 9, seed=2, acyclic=True)
        spec = make_transitive_closure_program(edges)
        view = compute_tp_fixpoint(spec.program, solver)
        program = spec.program

        from repro.maintenance import deletion_rewrite

        for request in deletion_stream(spec, 3, seed=5):
            stdel = delete_with_stdel(program, view, request.atom, solver)
            dred = delete_with_dred(program, view, request.atom, solver)
            assert stdel.view.instances(solver) == dred.view.instances(solver)
            view = stdel.view
            program = deletion_rewrite(program, (request.atom,))

        expected = full_recompute(program, solver).view
        assert view.instances(solver) == expected.instances(solver)


class TestMediatorOverRelationalSources:
    def test_three_source_mediator(self):
        mediator = (
            MediatorBuilder()
            .with_rules(
                """
                customer(Name) <- in(R, crm:select_eq('customers', 'active', true)) &
                                  in(Name, crm:field(R, 'name')).
                order_total(Name, Total) <- customer(Name) &
                                  in(O, shop:select_eq('orders', 'customer', Name)) &
                                  in(Total, shop:field(O, 'total')).
                big_spender(Name) <- order_total(Name, Total) & Total >= 100.
                """
            )
            .with_relational_source(
                "crm",
                {"customers": (("name", "active"), [("ann", True), ("bob", False), ("cid", True)])},
            )
            .with_relational_source(
                "shop",
                {"orders": (("customer", "total"), [("ann", 150), ("ann", 20), ("cid", 80)])},
            )
            .build()
        )
        view = mediator.materialize(operator="wp")
        assert view.query("customer") == {("ann",), ("cid",)}
        assert view.query("big_spender") == {("ann",)}

        # Source update: cid places a big order; no maintenance needed (W_P).
        shop = mediator.registry.domain("shop")
        shop.database.insert("orders", ("cid", 500))
        assert view.query("big_spender") == {("ann",), ("cid",)}

        # View update of the first kind: ann's big order was fraudulent.
        view.delete("big_spender(X) <- X = 'ann'")
        assert view.query("big_spender") == {("cid",)}

    def test_law_enforcement_full_cycle(self):
        scenario = make_law_enforcement_scenario(num_people=10, photo_count=6, seed=13)
        view = scenario.mediator.materialize(operator="wp")
        baseline = set(scenario.expected_suspects())
        assert set(view.query("suspect")) == baseline

        # Delete one suspect pair, insert an externally reported sighting,
        # then check ground truth adjustments.
        if baseline:
            witness, person = sorted(baseline)[0]
            view.delete(f"suspect(X, Y) <- X = '{witness}' & Y = '{person}'")
            assert (witness, person) not in view.query("suspect")

        newcomer = scenario.people[-1]
        view.insert(
            f"seenwith(X, Y) <- X = '{scenario.kingpin}' & Y = '{newcomer}'"
        )
        assert (scenario.kingpin, newcomer) in view.query("seenwith")


class TestDeletionAlgorithmsOnDuplicateHeavyViews:
    def test_interval_program_duplicates(self):
        from repro.workloads import make_interval_program

        solver = ConstraintSolver()
        spec = make_interval_program(predicates=3, intervals_per_predicate=2, width=12, seed=5)
        view = compute_tp_fixpoint(spec.program, solver)
        assert not view.is_duplicate_free(solver)

        request = deletion_stream(spec, 1, seed=1)[0].atom
        expected = recompute_after_deletion(spec.program, view, request, solver).view
        stdel = delete_with_stdel(spec.program, view, request, solver)
        dred = delete_with_dred(spec.program, view, request, solver)
        universe = range(0, 20)
        assert stdel.view.instances(solver, universe) == expected.instances(solver, universe)
        assert dred.view.instances(solver, universe) == expected.instances(solver, universe)
