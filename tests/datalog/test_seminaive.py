"""Semi-naive evaluation: derivation effort must track the delta, not the view.

The fixpoint engine claims per-round cost ``O(|Δ| · |view|^(k-1))`` per
clause of body arity ``k`` (instead of the naive ``O(|view|^k)``); these
tests pin that shape down with the ``derivation_attempts`` counter rather
than wall-clock.
"""

from __future__ import annotations

import pytest

from repro.constraints import ConstraintSolver
from repro.datalog import EngineOptions, FixpointEngine, ViewEntry, compute_tp_fixpoint
from repro.datalog.join import (
    DeltaJoinKernel,
    DeltaRound,
    Seed,
    iter_delta_joins,
    make_fresh_factory,
)
from repro.maintenance import MaintenanceStats
from repro.workloads import (
    make_chain_program,
    make_interval_join_program,
    make_layered_program,
    make_path_graph_edges,
    make_transitive_closure_program,
)


def chain_attempts(depth: int, base_facts: int = 3) -> int:
    spec = make_chain_program(base_facts=base_facts, depth=depth)
    engine = FixpointEngine(spec.program, ConstraintSolver())
    engine.compute()
    return engine.stats.derivation_attempts


class TestChainProgramLinearity:
    """On a chain of unary predicates, attempts grow linearly in the depth.

    Each round only the clause whose body predicate gained entries fires, on
    exactly the delta -- so the total is ``base_facts * depth``.  The naive
    product-then-filter loop instead revisited every clause whose body pool
    was non-empty each round, considering ``Θ(depth²)`` combinations.
    """

    @pytest.mark.parametrize("depth", [4, 8, 16])
    def test_attempts_equal_base_facts_times_depth(self, depth):
        assert chain_attempts(depth) == 3 * depth

    def test_attempts_grow_linearly_not_quadratically(self):
        shallow, deep = chain_attempts(8), chain_attempts(24)
        # Linear: tripling the depth triples the attempts (a quadratic
        # enumeration would multiply them ninefold).
        assert deep == 3 * shallow


class TestTransitiveClosureDeltaProportionality:
    """Per-round attempts on transitive closure are bounded by |Δ|·|view|."""

    def test_round_attempts_proportional_to_delta(self):
        length = 12
        spec = make_transitive_closure_program(make_path_graph_edges(length))
        engine = FixpointEngine(spec.program, ConstraintSolver())
        engine.compute()
        stats = engine.stats
        assert stats.round_attempts and len(stats.round_attempts) == len(
            stats.round_delta_sizes
        )
        edges = length  # number of edge facts
        for attempts, delta_size in zip(
            stats.round_attempts, stats.round_delta_sizes
        ):
            # Two rule clauses, each with at most one non-delta position
            # whose pool never exceeds the number of edge entries (the
            # recursive clause joins Δpath against edge on the left).
            assert attempts <= 2 * delta_size * (edges + 1)

    def test_skips_clauses_without_delta(self):
        spec = make_chain_program(base_facts=2, depth=10)
        engine = FixpointEngine(spec.program, ConstraintSolver())
        engine.compute()
        # Ten rounds, ten rule clauses; all but one are skipped per round.
        assert engine.stats.clauses_skipped >= 9 * 9

    def test_view_identical_to_naive_reference(self):
        """The delta-join must enumerate the same derivations as the naive product."""
        spec = make_transitive_closure_program(make_path_graph_edges(6))
        solver = ConstraintSolver()
        view = compute_tp_fixpoint(spec.program, solver)
        # Reference: every path i->j for i < j, each with one support per
        # derivation along the chain.
        expected = {
            (f"n{i}", f"n{j}") for i in range(7) for j in range(i + 1, 7)
        }
        assert view.instances_for("path", solver) == expected


class TestIterDeltaJoins:
    def test_partitions_exactly_once(self):
        old = [("a1",), ("b1", "b2")]
        delta = [("A",), ("B",)]
        full = [("a1", "A"), ("b1", "b2", "B")]
        combos = list(iter_delta_joins(old, delta, full))
        # Every combination with >= 1 delta element, each exactly once.
        assert len(combos) == len(set(combos))
        import itertools

        expected = {
            combo
            for combo in itertools.product(*full)
            if "A" in combo or "B" in combo
        }
        assert set(combos) == expected

    def test_exactly_one_mode(self):
        view_pool = [("a1", "a2"), ("b1",)]
        delta = [("A",), ("B",)]
        combos = list(iter_delta_joins(view_pool, delta, view_pool))
        # With old == full (and pools disjoint from deltas) each combination
        # uses exactly one delta element.
        assert all(
            sum(1 for item in combo if item in ("A", "B")) == 1
            for combo in combos
        )
        assert len(combos) == len(set(combos)) == 1 * 1 + 2 * 1  # A×b + a×B

    def test_empty_delta_yields_nothing(self):
        assert list(iter_delta_joins([("x",)], [()], [("x",)])) == []


FAMILIES = {
    "tc": lambda: make_transitive_closure_program(make_path_graph_edges(6)),
    "layered": lambda: make_layered_program(
        base_facts=6, layers=2, predicates_per_layer=2, fanin=2, seed=1
    ),
    "interval_join": lambda: make_interval_join_program(
        ground_facts=4, intervals_per_predicate=3, pairs=2, width=40, seed=2
    ),
}


def seeded_delta(view, seed):
    """A delta for *seed*: base entries, as members or as bare atoms."""
    if seed is Seed.ALL_DELTA:
        return list(view)
    base = [entry for entry in view if not entry.support.children][:4]
    if seed is Seed.FRONTIER:
        return [entry.constrained_atom for entry in base]
    return base


def run_round(spec, view, delta, seed, hash_join_index):
    """Survivors of one kernel round as ``(clause number, premise ids)``."""
    solver = ConstraintSolver()
    kernel = DeltaJoinKernel(
        spec.program,
        solver,
        EngineOptions(hash_join_index=hash_join_index),
        make_fresh_factory(spec.program, view),
        MaintenanceStats(),
    )
    round_ = DeltaRound(kernel, view, delta, seed)
    survivors = [
        (clause.number, tuple(id(premise) for premise in premises))
        for clause, premises, _ in round_
    ]
    return round_, survivors, kernel.stats


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", list(Seed))
class TestDeltaJoinKernel:
    """The one kernel behind ``T_P``, ``P_OUT`` and ``P_ADD``."""

    def test_indexed_yields_the_scan_survivors_in_clause_order(self, family, seed):
        spec = FAMILIES[family]()
        view = compute_tp_fixpoint(spec.program, ConstraintSolver())
        delta = seeded_delta(view, seed)
        _, indexed, indexed_stats = run_round(spec, view, delta, seed, True)
        _, scanned, scan_stats = run_round(spec, view, delta, seed, False)
        assert indexed  # the round derives something
        # Same clauses in the same order; within a clause the index visits
        # the delta position first, so only the *set* of combinations is
        # fixed.
        clause_order = [number for number, _ in indexed]
        assert clause_order == sorted(clause_order)
        assert clause_order == [number for number, _ in scanned]
        assert sorted(indexed) == sorted(scanned)
        # The index only prunes combinations the solvability check rejects.
        assert indexed_stats.derivation_attempts <= scan_stats.derivation_attempts
        assert scan_stats.index_probes == 0

    def test_seed_policy_shapes_the_pools(self, family, seed):
        spec = FAMILIES[family]()
        view = compute_tp_fixpoint(spec.program, ConstraintSolver())
        delta = seeded_delta(view, seed)
        round_, survivors, _ = run_round(spec, view, delta, seed, True)
        delta_ids = {id(item) for item in delta}
        drawn = [
            sum(1 for premise in premises if premise in delta_ids)
            for _, premises in survivors
        ]
        assert all(count >= 1 for count in drawn)
        for clause in round_.clauses:
            for body_atom in clause.body:
                full, old, fresh = round_.pools_for(body_atom)
                if seed is Seed.FRONTIER:
                    # P_OUT: the frontier lives outside the view, every
                    # other premise draws from the whole view.
                    assert old == full
                    assert not any(isinstance(item, ViewEntry) for item in fresh)
                elif seed is Seed.ALL_DELTA:
                    # One operator application: nothing is old.
                    assert old == () and fresh == full
                else:
                    assert set(old) == set(full) - set(fresh)
        if seed is Seed.FRONTIER:
            assert all(count == 1 for count in drawn)
        if seed is Seed.ALL_DELTA:
            assert drawn == [len(premises) for _, premises in survivors]
