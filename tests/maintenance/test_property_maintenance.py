"""Property-based tests for the maintenance algorithms.

Random layered ground programs are generated, a random base fact is deleted
or a fresh fact inserted, and the incremental algorithms are checked against
the declarative semantics (the recomputed least model of the rewritten
program).  This is the executable form of Theorems 1, 2 and 3 over a whole
family of programs rather than the paper's single worked examples.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.constraints import ConstraintSolver
from repro.datalog import compute_tp_fixpoint
from repro.maintenance import (
    delete_with_dred,
    delete_with_stdel,
    insert_atom,
    recompute_after_deletion,
    recompute_after_insertion,
)
from repro.workloads import (
    deletion_stream,
    insertion_stream,
    make_layered_program,
    make_transitive_closure_program,
    make_random_graph_edges,
)


layered_specs = st.builds(
    make_layered_program,
    base_facts=st.integers(min_value=2, max_value=6),
    layers=st.integers(min_value=1, max_value=3),
    predicates_per_layer=st.integers(min_value=1, max_value=2),
    fanin=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
)

tc_specs = st.builds(
    lambda nodes, edges, seed: make_transitive_closure_program(
        make_random_graph_edges(nodes, edges, seed=seed, acyclic=True)
    ),
    nodes=st.integers(min_value=3, max_value=6),
    edges=st.integers(min_value=2, max_value=7),
    seed=st.integers(min_value=0, max_value=10_000),
)


@settings(max_examples=25, deadline=None)
@given(layered_specs, st.integers(min_value=0, max_value=10_000))
def test_deletion_algorithms_match_declarative_semantics_on_layered_programs(spec, seed):
    solver = ConstraintSolver()
    view = compute_tp_fixpoint(spec.program, solver)
    request = deletion_stream(spec, 1, seed=seed)[0].atom
    expected = recompute_after_deletion(spec.program, view, request, solver).view.instances(solver)
    assert delete_with_stdel(spec.program, view, request, solver).view.instances(solver) == expected
    assert delete_with_dred(spec.program, view, request, solver).view.instances(solver) == expected


@settings(max_examples=15, deadline=None)
@given(tc_specs, st.integers(min_value=0, max_value=10_000))
def test_deletion_algorithms_match_declarative_semantics_on_recursive_programs(spec, seed):
    solver = ConstraintSolver()
    view = compute_tp_fixpoint(spec.program, solver)
    request = deletion_stream(spec, 1, seed=seed)[0].atom
    expected = recompute_after_deletion(spec.program, view, request, solver).view.instances(solver)
    assert delete_with_stdel(spec.program, view, request, solver).view.instances(solver) == expected
    assert delete_with_dred(spec.program, view, request, solver).view.instances(solver) == expected


@settings(max_examples=25, deadline=None)
@given(layered_specs, st.integers(min_value=0, max_value=10_000))
def test_insertion_matches_declarative_semantics(spec, seed):
    solver = ConstraintSolver()
    view = compute_tp_fixpoint(spec.program, solver)
    request = insertion_stream(spec, 1, seed=seed)[0].atom
    incremental = insert_atom(spec.program, view, request, solver)
    baseline = recompute_after_insertion(spec.program, view, request, solver)
    assert incremental.view.instances(solver) == baseline.view.instances(solver)


@settings(max_examples=20, deadline=None)
@given(layered_specs, st.integers(min_value=0, max_value=10_000))
def test_delete_then_reinsert_restores_instances(spec, seed):
    solver = ConstraintSolver()
    view = compute_tp_fixpoint(spec.program, solver)
    request = deletion_stream(spec, 1, seed=seed)[0].atom
    deleted = delete_with_stdel(spec.program, view, request, solver)
    restored = insert_atom(spec.program, deleted.view, request, solver)
    assert restored.view.instances(solver) == view.instances(solver)


@settings(max_examples=20, deadline=None)
@given(layered_specs, st.integers(min_value=0, max_value=10_000))
def test_deleting_an_inserted_fact_restores_instances(spec, seed):
    solver = ConstraintSolver()
    view = compute_tp_fixpoint(spec.program, solver)
    request = insertion_stream(spec, 1, seed=seed)[0].atom
    inserted = insert_atom(spec.program, view, request, solver)
    removed = delete_with_stdel(spec.program, inserted.view, request, solver)
    assert removed.view.instances(solver) == view.instances(solver)


@settings(max_examples=20, deadline=None)
@given(layered_specs, st.integers(min_value=0, max_value=10_000))
def test_stdel_never_rederives_and_dred_and_stdel_agree(spec, seed):
    solver = ConstraintSolver()
    view = compute_tp_fixpoint(spec.program, solver)
    request = deletion_stream(spec, 1, seed=seed)[0].atom
    stdel = delete_with_stdel(spec.program, view, request, solver)
    dred = delete_with_dred(spec.program, view, request, solver)
    assert stdel.stats.rederived_entries == 0
    assert stdel.view.instances(solver) == dred.view.instances(solver)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3, unique=True),
)
def test_wp_and_tp_views_have_identical_instances(base_facts, values):
    solver = ConstraintSolver()
    # W_P keeps unsolvable entries; its instance set must still equal T_P's.
    from repro.datalog import compute_wp_fixpoint, parse_program

    rules = ["low(X) <- X >= 0 & X <= %d." % base_facts]
    for value in values:
        rules.append(f"picked(X) <- low(X) & X = {value}.")
    rules.append("out(X) <- picked(X).")
    program = parse_program("\n".join(rules))
    tp_view = compute_tp_fixpoint(program, solver)
    wp_view = compute_wp_fixpoint(program, solver)
    universe = range(0, base_facts + 2)
    assert tp_view.instances(solver, universe) == wp_view.instances(solver, universe)
    assert len(wp_view) >= len(tp_view)
