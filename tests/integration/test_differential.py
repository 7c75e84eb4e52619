"""Randomized differential harness for the maintenance algorithms.

For every seed a random constrained database is generated (cycling through
the layered / chain / interval / transitive-closure / interval-join
families), a deterministic stream of base-fact deletions *interleaved with
insertions* is drawn from it, and after **every** step the implementations
are compared:

* Straight Delete must produce a ``key()``-identical view (same atoms, same
  canonical constraints, same supports) on every step of every seed.
* Extended DRed must be ``key()``-identical to the recomputed
  ``T_{P'} ↑ ω`` view whenever the pre-deletion view is duplicate-free (the
  regime the paper states the algorithm is for, Section 3.1) **and** on the
  interval families regardless of duplicate-freeness: the post-rederivation
  subsumption pass drops the narrowed
  duplicates rederivation used to leave behind, closing the
  instance-equal-but-key-different gap.  Any remaining non-duplicate-free
  case falls back to the documented contract: a syntactic superset of the
  recomputed view with exactly the same instances.
* Insertions are applied to every track through Algorithm 3 (each against
  its own current program -- DRed and recomputation thread the rewritten
  program, per the Extended DRed module docstring) and must leave the
  tracks exactly as comparable as before.  The recomputation baseline
  carries externally inserted entries (leaves numbered 0) as extra EDB.

Each DRed step additionally runs a second time with the hash-join argument
index disabled; the indexed run must produce the identical view while never
enumerating *more* premise combinations than the positional scan -- the
"proportional to the delta" discipline of Lu, Moerkotte, Schü &
Subrahmanian made into an executable invariant.  The same holds for the
interval range postings: with them on, the enumeration may only shrink.

Every step also runs with ``hash_join_index=False`` for StDel, insertion and
recomputation: that reference scans a predicate's shard for the entries a
request can overlap where the default probes the view's argument index
(:func:`repro.datalog.join.overlap_candidates`), and must stay
key-identical.  And the stream scheduler's effective program, which
rewrites only the clauses a deletion can unify with, is checked against the
paper's rewrite (4) of *every* ``A``-clause, built here with
``map_clauses``: the two must have the same least model.
"""

from __future__ import annotations

import pytest

from repro.constraints import ConstraintSolver
from repro.datalog import FixpointEngine, compute_tp_fixpoint
from repro.datalog.join import EngineOptions
from repro.maintenance import (
    DeletionRequest,
    ExtendedDRed,
    InsertionRequest,
    StraightDelete,
    insert_atom,
    recompute_after_deletion,
)
from repro.stream import StreamOptions, StreamScheduler
from repro.workloads import (
    deletion_stream,
    insertion_stream,
    make_chain_program,
    make_interval_join_program,
    make_interval_program,
    make_layered_program,
    make_random_graph_edges,
    make_transitive_closure_program,
)

SEEDS = range(60)

#: Families whose views carry overlapping (duplicate) non-ground entries;
#: the subsumption pass must make DRed key-identical there too.
INTERVAL_FAMILIES = (2, 4)

POSITIONAL_DRED = EngineOptions(delta_rederivation=False, hash_join_index=False)

#: The reference the overlap-candidate probes are compared against: every
#: request scans its predicate's shard.
SCAN = EngineOptions(hash_join_index=False)

UNIVERSE = range(0, 64)  # covers every generated bound and fact


def build_spec(seed: int):
    """A small random workload; the family cycles with the seed."""
    family = seed % 5
    if family == 0:
        return make_layered_program(
            base_facts=3 + seed % 3,
            layers=1 + seed % 3,
            predicates_per_layer=1 + seed % 2,
            fanin=1 + seed % 2,
            seed=seed,
        )
    if family == 1:
        return make_chain_program(base_facts=3 + seed % 3, depth=1 + seed % 4)
    if family == 2:
        return make_interval_program(
            predicates=2 + seed % 2, intervals_per_predicate=2, width=30, seed=seed
        )
    if family == 4:
        return make_interval_join_program(
            ground_facts=2 + seed % 3,
            intervals_per_predicate=2,
            pairs=1 + seed % 2,
            width=24,
            seed=seed,
        )
    edges = make_random_graph_edges(4 + seed % 3, 4 + seed % 4, seed=seed, acyclic=True)
    if not edges:  # tiny chance the sampler comes up empty
        edges = (("n0", "n1"),)
    return make_transitive_closure_program(edges)


def build_stream(spec, seed: int):
    """Deletions interleaved with insertions, deterministically per seed."""
    total_base_facts = sum(len(facts) for facts in spec.base_facts.values())
    deletions = list(deletion_stream(spec, min(3, total_base_facts), seed=seed))
    insertions = list(insertion_stream(spec, 1 + seed % 2, seed=seed))
    stream = []
    while deletions or insertions:
        if deletions:
            stream.append(("delete", deletions.pop(0)))
        if insertions:
            stream.append(("insert", insertions.pop(0)))
    return stream


def view_keys(view):
    return sorted(str(entry.key()) for entry in view)


def paper_rewrite(program, deleted):
    """Rewrite (4) as the paper states it: ``not(δ & X̄ = Ȳ)`` conjoined onto
    every clause of the deleted atom's signature -- no index, nothing skipped."""
    from repro.constraints.terms import FreshVariableFactory
    from repro.maintenance.common import negated_atom_constraint

    factory = FreshVariableFactory(
        {variable.name for clause in program for variable in clause.variables()}
        | {variable.name for atom in deleted for variable in atom.variables()}
    )

    def rewrite(clause):
        for atom in deleted:
            if atom.atom.signature == clause.head.signature:
                _, negative = negated_atom_constraint(clause.head, atom, factory)
                clause = clause.with_extra_constraint(negative)
        return clause

    return program.map_clauses(rewrite)


def least_model(program, solver):
    return compute_tp_fixpoint(program, solver).instances(solver, UNIVERSE)


@pytest.mark.parametrize("seed", SEEDS)
def test_update_sequences_produce_key_identical_views(seed):
    spec = build_spec(seed)
    family = seed % 5
    solver = ConstraintSolver()
    initial = compute_tp_fixpoint(spec.program, solver)

    stdel_view = initial
    dred_view, dred_program = initial, spec.program
    recompute_view, recompute_program = initial, spec.program

    for step, (kind, request) in enumerate(build_stream(spec, seed)):
        if kind == "insert":
            # The same request lands on every track through Algorithm 3,
            # each against its own current program; externally inserted
            # entries (support 0) must keep the tracks key-comparable.
            dred_was_identical = view_keys(dred_view) == view_keys(recompute_view)
            before_insert = stdel_view
            stdel_view = insert_atom(
                spec.program, stdel_view, request.atom, solver
            ).view
            dred_view = insert_atom(
                dred_program, dred_view, request.atom, solver
            ).view
            recompute_view = insert_atom(
                recompute_program, recompute_view, request.atom, solver
            ).view
            assert view_keys(stdel_view) == view_keys(recompute_view), (
                f"insertion diverged at step {step}"
            )
            assert view_keys(stdel_view) == view_keys(
                insert_atom(spec.program, before_insert, request.atom, solver, SCAN).view
            ), f"probed Add set diverged from the scanned one at step {step}"
            # Insertion must preserve whatever parity the DRed track had --
            # including when the stream ends on insertions and no later
            # deletion step would catch a divergence.
            if dred_was_identical:
                assert view_keys(dred_view) == view_keys(recompute_view), (
                    f"insertion broke DRed key-parity at step {step}"
                )
            continue

        duplicate_free = dred_view.is_duplicate_free(solver)
        stdel = StraightDelete(spec.program, solver).delete(stdel_view, request)
        dred = ExtendedDRed(dred_program, solver).delete(dred_view, request)
        positional = ExtendedDRed(dred_program, solver, POSITIONAL_DRED).delete(
            dred_view, request
        )
        recomputed = recompute_after_deletion(
            recompute_program, recompute_view, request.atom, solver
        )

        expected = view_keys(recomputed.view)
        assert view_keys(stdel.view) == expected, f"StDel diverged at step {step}"
        # Probed overlap candidates vs the shard scan: same views.
        assert expected == view_keys(
            StraightDelete(spec.program, solver, SCAN).delete(stdel_view, request).view
        ), f"probed StDel diverged from the scanning one at step {step}"
        assert expected == view_keys(
            recompute_after_deletion(
                recompute_program, recompute_view, request.atom, solver, SCAN
            ).view
        ), f"probed recomputation diverged from the scanning one at step {step}"
        # The delta-aware + indexed DRed must agree exactly with the
        # legacy positional implementation on every step.
        assert view_keys(dred.view) == view_keys(positional.view), (
            f"indexed DRed diverged from positional DRed at step {step}"
        )
        if duplicate_free or family in INTERVAL_FAMILIES:
            # Interval views are exactly where DRed used to retain narrowed
            # duplicates; with the subsumption pass they too are
            # key-identical, not merely instance-identical.
            assert view_keys(dred.view) == expected, (
                f"DRed diverged at step {step}"
            )
        else:
            assert set(view_keys(dred.view)) >= set(expected), (
                f"DRed lost entries at step {step}"
            )
            assert dred.view.instances(solver, UNIVERSE) == recomputed.view.instances(
                solver, UNIVERSE
            ), f"DRed instances diverged at step {step}"
        # The hash-join index may only prune; it must never enumerate more
        # premise combinations than the positional scan.
        assert dred.stats.derivation_attempts <= positional.stats.derivation_attempts
        # Probing the child-support index can never examine more entries
        # than the per-pair full-view scan it replaced.
        assert stdel.stats.support_probes <= len(stdel_view) * (
            stdel.stats.seed_atoms + stdel.stats.unfolded_atoms
        )

        stdel_view = stdel.view
        dred_view, dred_program = dred.view, dred.rewritten_program
        recompute_view, recompute_program = recomputed.view, recomputed.program


def test_two_sided_external_narrowing_stays_key_identical():
    """Directed regression for a shape the random seeds can miss.

    An externally inserted two-sided atom narrowed by an *overlapping*
    two-sided deletion leaves one original bound entailed by the negation
    residue (``X <= 50`` next to ``X < 46``); every algorithm must drop it
    the same way (the fixpoint's ``drop_redundant_comparisons``
    normalization) or the views end up instance-identical but
    key-different.
    """
    from repro.constraints import Variable, compare, conjoin
    from repro.datalog import Atom
    from repro.datalog.atoms import ConstrainedAtom
    from repro.datalog.clauses import Clause
    from repro.datalog.program import ConstrainedDatabase

    x = Variable("X")
    program = ConstrainedDatabase([Clause(Atom("q", (x,)), compare(x, ">=", 200), ())])
    solver = ConstraintSolver()
    view = compute_tp_fixpoint(program, solver)
    inserted = ConstrainedAtom(
        Atom("p", (x,)), conjoin(compare(x, ">=", 0), compare(x, "<=", 50))
    )
    view = insert_atom(program, view, inserted, solver).view
    deleted = ConstrainedAtom(
        Atom("p", (x,)), conjoin(compare(x, ">=", 46), compare(x, "<=", 100))
    )
    stdel = StraightDelete(program, solver).delete(view, DeletionRequest(deleted))
    dred = ExtendedDRed(program, solver).delete(view, DeletionRequest(deleted))
    recomputed = recompute_after_deletion(program, view, deleted, solver)
    assert view_keys(stdel.view) == view_keys(recomputed.view)
    assert view_keys(dred.view) == view_keys(recomputed.view)


def test_non_overlapping_deletion_leaves_external_entry_keys_untouched():
    """Directed regression: narrowing must not re-canonicalize bystanders.

    Insertion disjointification leaves a redundant bound on the second
    external atom (``0 <= X & 10 < X & X <= 50``); a later deletion that
    does not overlap it must keep that entry's key byte-identical in every
    algorithm -- ``subtract_instances`` used to re-simplify untouched
    entries, dropping the redundant bound in the DRed and recompute tracks
    while StDel (which only rewrites affected entries) kept it.
    """
    from repro.constraints import Variable, compare, conjoin
    from repro.datalog import Atom
    from repro.datalog.atoms import ConstrainedAtom
    from repro.datalog.clauses import Clause
    from repro.datalog.program import ConstrainedDatabase

    x = Variable("X")
    program = ConstrainedDatabase([Clause(Atom("q", (x,)), compare(x, ">=", 200), ())])
    solver = ConstraintSolver()
    view = compute_tp_fixpoint(program, solver)
    for low, high in ((0, 10), (0, 50)):
        atom = ConstrainedAtom(
            Atom("p", (x,)), conjoin(compare(x, ">=", low), compare(x, "<=", high))
        )
        view = insert_atom(program, view, atom, solver).view
    deleted = ConstrainedAtom(
        Atom("p", (x,)), conjoin(compare(x, ">=", 6), compare(x, "<=", 10))
    )
    stdel = StraightDelete(program, solver).delete(view, DeletionRequest(deleted))
    dred = ExtendedDRed(program, solver).delete(view, DeletionRequest(deleted))
    recomputed = recompute_after_deletion(program, view, deleted, solver)
    assert view_keys(stdel.view) == view_keys(recomputed.view)
    assert view_keys(dred.view) == view_keys(recomputed.view)


@pytest.mark.parametrize("seed", (9, 14, 19, 24))
def test_one_engine_config_moves_every_algorithm_together(seed):
    """Every reference path at once, on the interval-join family.

    StDel, DRed, insertion and recomputation read one :class:`EngineOptions`.
    What the paper fixes has no flag, so the fields left choose only how a
    result is found: the reference scan join, no range postings, full-seed
    rederivation and one pass per deletion must give key-identical tracks,
    step by step, equal to the default configuration's.
    """

    def run(options):
        spec = build_spec(seed)
        solver = ConstraintSolver()
        initial = compute_tp_fixpoint(spec.program, solver, options=options)
        # Per track: [view, program]; StDel always runs the original program.
        stdel, dred, recompute = ([initial, spec.program] for _ in range(3))
        trail = []
        for kind, request in build_stream(spec, seed):
            if kind == "insert":
                for track in (stdel, dred, recompute):
                    track[0] = insert_atom(
                        track[1], track[0], request.atom, solver, options
                    ).view
            else:
                stdel[0] = StraightDelete(spec.program, solver, options).delete(
                    stdel[0], request
                ).view
                step = ExtendedDRed(dred[1], solver, options).delete(dred[0], request)
                dred[:] = step.view, step.rewritten_program
                step = recompute_after_deletion(
                    recompute[1], recompute[0], request.atom, solver, options
                )
                recompute[:] = step.view, step.program
            expected = view_keys(recompute[0])
            assert view_keys(stdel[0]) == expected
            assert view_keys(dred[0]) == expected
            trail.append(expected)
        return trail

    assert seed % 5 == 4  # the interval-join family
    references = EngineOptions(
        hash_join_index=False,
        range_postings=False,
        delta_rederivation=False,
        segment_batches=False,
    )
    assert run(references) == run(EngineOptions())


@pytest.mark.parametrize("seed", SEEDS)
def test_coalesced_batches_match_one_at_a_time(seed):
    """The stream scheduler's batched application vs the sequential tracks.

    Every random update sequence is also applied as ONE coalesced batch per
    algorithm through :class:`repro.stream.StreamScheduler`; the result must
    be key-identical to the one-at-a-time application, and the batch must
    never cost more (``derivation_attempts + solver_calls``) than the
    sequential run -- *strictly* less whenever at least two deletions were
    batched into shared passes (DRed batches deleting a derivable predicate
    fall back to the safe sequential chain and may only tie).
    """
    spec = build_spec(seed)
    solver = ConstraintSolver()
    initial = compute_tp_fixpoint(spec.program, solver)
    stream = build_stream(spec, seed)
    requests = [request for _, request in stream]
    deletions = [r for kind, r in stream if kind == "delete"]
    derivable = {
        clause.predicate for clause in spec.program if clause.body
    }
    dred_batches_fully = not any(
        request.atom.predicate in derivable for request in deletions
    )

    for algorithm in ("stdel", "dred"):
        sequential_view = initial
        program = spec.program
        sequential_cost = 0
        for kind, request in stream:
            if kind == "insert":
                step = insert_atom(
                    program if algorithm == "dred" else spec.program,
                    sequential_view,
                    request.atom,
                    solver,
                )
                sequential_view = step.view
            elif algorithm == "stdel":
                step = StraightDelete(spec.program, solver).delete(
                    sequential_view, request
                )
                sequential_view = step.view
            else:
                step = ExtendedDRed(program, solver).delete(sequential_view, request)
                sequential_view, program = step.view, step.rewritten_program
            sequential_cost += (
                step.stats.derivation_attempts + step.stats.solver_calls
            )

        scheduler = StreamScheduler(
            spec.program,
            ConstraintSolver(),
            view=initial.copy(),
            options=StreamOptions(deletion_algorithm=algorithm),
        )
        result = scheduler.apply_batch(requests)
        assert result.ok
        assert view_keys(result.view) == view_keys(sequential_view), (
            f"{algorithm} batch diverged from one-at-a-time"
        )
        # The effective program rewrites only the clauses a deletion can
        # unify with; the paper rewrites every A-clause.  Same least model.
        effective = scheduler.effective_program
        reference = paper_rewrite(
            spec.program, [request.atom for request in result.coalesced.deletions]
        ).with_clauses_added(
            [
                clause.with_number(None)
                for clause in effective
                if not spec.program.has_clause(clause.number)
            ]
        )
        assert least_model(effective, solver) == least_model(reference, solver), (
            f"{algorithm}: targeted rewrite changed the least model"
        )
        batched_cost = (
            result.stats.derivation_attempts + result.stats.solver_calls
        )
        assert batched_cost <= sequential_cost, f"{algorithm} batch cost more"
        if len(deletions) >= 2 and (algorithm == "stdel" or dred_batches_fully):
            assert batched_cost < sequential_cost, (
                f"{algorithm} batch did not amortize anything"
            )


@pytest.mark.parametrize("seed", range(0, 60, 5))
def test_indexed_materialization_matches_positional(seed):
    """T_P materialization: same view, never more derivation attempts.

    Three ladders: range postings on, hash join without range postings, and
    the plain positional scan; each rung may only prune.
    """
    spec = build_spec(seed)
    ranged_engine = FixpointEngine(
        spec.program,
        ConstraintSolver(),
        EngineOptions(hash_join_index=True, range_postings=True),
    )
    ranged = ranged_engine.compute()
    indexed_engine = FixpointEngine(
        spec.program,
        ConstraintSolver(),
        EngineOptions(hash_join_index=True, range_postings=False),
    )
    indexed = indexed_engine.compute()
    positional_engine = FixpointEngine(
        spec.program, ConstraintSolver(), EngineOptions(hash_join_index=False)
    )
    positional = positional_engine.compute()
    assert [str(e.key()) for e in ranged] == [str(e.key()) for e in positional]
    assert [str(e.key()) for e in indexed] == [str(e.key()) for e in positional]
    assert (
        ranged_engine.stats.derivation_attempts
        <= indexed_engine.stats.derivation_attempts
        <= positional_engine.stats.derivation_attempts
    )


@pytest.mark.parametrize("seed", range(0, 30, 3))
def test_segmented_dred_batches_match_the_chained_fallback(seed):
    """Batches deleting a *derivable* predicate: segmented vs fully chained.

    ``ExtendedDRed.delete_many`` used to demote the whole batch to the
    one-at-a-time chain as soon as any request deleted a derivable
    predicate; it now segments the batch around those requests so the
    EDB-only majority stays in the single-pass path.  The segmented result
    must match the chained one -- instance-identical always, key-identical
    on duplicate-free and interval views -- at a cost (derivation attempts
    + solver calls) never above the chain's.
    """
    spec = build_spec(seed)
    family = seed % 5
    solver = ConstraintSolver()
    initial = compute_tp_fixpoint(spec.program, solver)
    derivable = sorted(
        {clause.predicate for clause in spec.program if clause.body}
    )
    derived_entries = [
        entry
        for predicate in derivable
        for entry in initial.entries_for(predicate)
    ]
    edb_deletions = list(deletion_stream(spec, 3, seed=seed))
    if len(edb_deletions) < 2 or not derived_entries:
        pytest.skip("needs >= 2 EDB deletions and a derivable-predicate entry")
    requests = (
        edb_deletions[:2]
        + [DeletionRequest(derived_entries[0].constrained_atom)]
        + edb_deletions[2:]
    )

    chained = ExtendedDRed(
        spec.program, solver, EngineOptions(segment_batches=False)
    ).delete_many(initial, requests)
    segmented = ExtendedDRed(spec.program, solver).delete_many(initial, requests)

    universe = range(0, 64)
    assert segmented.view.instances(solver, universe) == chained.view.instances(
        solver, universe
    )
    if initial.is_duplicate_free(solver) or family in INTERVAL_FAMILIES:
        assert view_keys(segmented.view) == view_keys(chained.view)
    cost_chained = chained.stats.derivation_attempts + chained.stats.solver_calls
    cost_segmented = (
        segmented.stats.derivation_attempts + segmented.stats.solver_calls
    )
    assert cost_segmented <= cost_chained


# ----------------------------------------------------------------------
# Directed cases for the overlap-candidate lookup and the targeted rewrite
# ----------------------------------------------------------------------
def _parsed(rules):
    from repro.datalog import parse_program

    program = parse_program(rules)
    solver = ConstraintSolver()
    return program, solver, compute_tp_fixpoint(program, solver)


def _candidates(view, atom, solver, options=EngineOptions()):
    from repro.datalog.join import overlap_candidates
    from repro.maintenance.requests import MaintenanceStats

    stats = MaintenanceStats()
    return overlap_candidates(view, atom, solver, options, stats), stats


def test_interval_entries_are_reached_through_range_postings():
    from repro.datalog import parse_constrained_atom

    program, solver, view = _parsed(
        "iv(X) <- X >= 0 & X <= 10.\niv(X) <- X >= 20 & X <= 30.\nup(X) <- iv(X)."
    )
    point = parse_constrained_atom("iv(X) <- X = 25")
    assert view.range_posting_snapshot() == ()
    found, stats = _candidates(view, point, solver)
    assert [str(entry.constraint) for entry in found] == ["X >= 20 & X <= 30"]
    assert stats.index_probes == 1
    assert view.range_posting_snapshot() != ()
    # A request that only bounds the position probes by overlap.
    band, _ = _candidates(view, parse_constrained_atom("iv(X) <- X >= 8 & X <= 12"), solver)
    assert [str(entry.constraint) for entry in band] == ["X >= 0 & X <= 10"]
    scanned, stats = _candidates(view, point, solver, SCAN)
    assert scanned == view.entries_for("iv") and stats.index_probes == 0
    request = DeletionRequest(point)
    assert view_keys(StraightDelete(program, solver).delete(view, request).view) == (
        view_keys(StraightDelete(program, solver, SCAN).delete(view, request).view)
    )


def test_an_unhashable_pinned_value_falls_back_to_the_scan():
    from repro.constraints import Variable, equals
    from repro.datalog import Atom
    from repro.datalog.atoms import ConstrainedAtom
    from repro.maintenance import deletion_rewrite

    class Moody:
        hashable = True

        def __hash__(self):
            if not self.hashable:
                raise TypeError("unhashable")
            return 7

    program, solver, view = _parsed("p(X) <- X = 1.\np(X) <- X = 2.\nq(X) <- p(X).")
    x = Variable("X")
    moody = Moody()
    atom = ConstrainedAtom(Atom("p", (x,)), equals(x, moody))
    moody.hashable = False  # interned while hashable; no index can look it up now
    try:
        found, _ = _candidates(view, atom, solver)
        assert found == view.entries_for("p")
        assert program.head_candidates(atom) == program.clauses_for("p")
        # Nothing equals the value: the deletion and its rewrite change nothing.
        result = StraightDelete(program, solver).delete(view, DeletionRequest(atom))
        assert view_keys(result.view) == view_keys(view)
        assert least_model(deletion_rewrite(program, (atom,)), solver) == least_model(
            program, solver
        )
    finally:
        moody.hashable = True  # the intern table drops its key by hash


def test_a_request_that_pins_nothing_scans_the_shard():
    from repro.datalog import parse_constrained_atom

    program, solver, view = _parsed("p(X) <- X = 1.\np(X) <- X = 2.\nq(X) <- p(X).")
    everything = parse_constrained_atom("p(X) <- X != 7")
    found, stats = _candidates(view, everything, solver)
    assert found == view.entries_for("p") and stats.index_probes == 0
    assert program.head_candidates(everything) == program.clauses_for("p")
    result = StraightDelete(program, solver).delete(view, DeletionRequest(everything))
    assert result.view.instances(solver, UNIVERSE) == frozenset()


def test_deleting_a_derived_predicate_rewrites_its_rule_clauses_only():
    from repro.datalog import parse_constrained_atom

    program, solver, view = _parsed(
        "a(X) <- X = 1.\na(X) <- X = 2.\nb(X) <- a(X).\nb(X) <- X = 9."
    )
    scheduler = StreamScheduler(program, solver, view=view)
    request = DeletionRequest(parse_constrained_atom("b(X) <- X = 1"))
    assert scheduler.apply_batch([request]).ok
    effective = scheduler.effective_program
    rewritten = [
        clause.number for clause in program if effective.clause(clause.number) is not clause
    ]
    # ``b(X) <- a(X)`` can derive b(1); ``b(X) <- X = 9`` and a's facts cannot.
    assert rewritten == [3]
    assert scheduler.query("b", UNIVERSE) == {(2,), (9,)}
    assert scheduler.query("a", UNIVERSE) == {(1,), (2,)}
    assert scheduler.verify(UNIVERSE)
    assert least_model(effective, solver) == least_model(
        paper_rewrite(program, [request.atom]), solver
    )


def test_an_unsolvable_entry_the_pass_did_not_replace_changes_nothing():
    from repro.constraints import Variable, conjoin, equals
    from repro.datalog import Atom, Support, ViewEntry, parse_constrained_atom

    program, solver, view = _parsed(
        "base(X) <- X = 1.\nbase(X) <- X = 2.\nmid(X) <- base(X).\ntop(X) <- mid(X)."
    )
    x = Variable("X")
    view = view.copy()
    # Inside the write closure of ``base``, but nothing the deletion touches.
    assert view.add(
        ViewEntry(Atom("top", (x,)), conjoin(equals(x, 1), equals(x, 2)), Support(99))
    )
    scheduler = StreamScheduler(program, solver, view=view)
    assert scheduler.apply_batch(
        [DeletionRequest(parse_constrained_atom("base(X) <- X = 1"))]
    ).ok
    for predicate in ("base", "mid", "top"):
        assert scheduler.query(predicate, UNIVERSE) == {(2,)}
    assert scheduler.verify(UNIVERSE)


def test_a_shared_external_support_resolves_to_the_body_atoms_predicate():
    """Externally inserted atoms all carry the reserved support 0.  When a
    deletion reaches a parent whose *other* premise was such an insertion,
    StDel must rebuild it from the inserted atom of the body atom's
    predicate -- here ``g(3)``, not the ``e(7, 8)`` inserted before it."""
    from repro.datalog import parse_constrained_atom

    program, solver, view = _parsed(
        "e(X, Y) <- X = 1 & Y = 2.\n"
        "g(X) <- X = 5.\n"
        "iv(X) <- X >= 0 & X <= 10.\n"
        "j(X) <- g(X), iv(X)."
    )
    for algorithm in ("stdel", "dred"):
        scheduler = StreamScheduler(
            program,
            solver,
            view=view,
            options=StreamOptions(deletion_algorithm=algorithm),
        )
        for text in ("e(X, Y) <- X = 7 & Y = 8", "g(X) <- X = 3"):
            assert scheduler.apply_batch(
                [InsertionRequest(parse_constrained_atom(text))]
            ).ok
        assert scheduler.query("j", UNIVERSE) == {(3,), (5,)}
        result = scheduler.apply_batch(
            [DeletionRequest(parse_constrained_atom("iv(X) <- X = 3"))]
        )
        assert result.ok, [unit.error for unit in result.failed_units]
        assert scheduler.query("j", UNIVERSE) == {(5,)}
        assert scheduler.verify(UNIVERSE)


def test_the_external_premise_is_the_inserted_atom_the_derivation_used():
    """Two inserted ``edge`` atoms share support 0.  ``path(n0, n3)`` was
    derived from the first; when ``edge(n2, n3)`` goes, StDel must rebuild
    it from that one -- rebuilt from the latest insertion the derivation
    looks unaffected and ``path(n0, n3)`` survives its own premise."""
    from repro.datalog import parse_constrained_atom

    program, solver, view = _parsed(
        "edge(X, Y) <- X = 'n1' & Y = 'n2'.\n"
        "edge(X, Y) <- X = 'n2' & Y = 'n3'.\n"
        "path(X, Y) <- edge(X, Y).\n"
        "path(X, Y) <- edge(X, Z), path(Z, Y)."
    )
    views = {}
    for algorithm in ("stdel", "dred"):
        scheduler = StreamScheduler(
            program,
            solver,
            view=view,
            options=StreamOptions(deletion_algorithm=algorithm),
        )
        for text in (
            "edge(X, Y) <- X = 'n0' & Y = 'n1'",
            "edge(X, Y) <- X = 'n7' & Y = 'n8'",
        ):
            assert scheduler.apply_batch(
                [InsertionRequest(parse_constrained_atom(text))]
            ).ok
        assert ("n0", "n3") in scheduler.query("path")
        assert scheduler.apply_batch(
            [DeletionRequest(parse_constrained_atom("edge(X, Y) <- X = 'n2' & Y = 'n3'"))]
        ).ok
        assert scheduler.query("path") == {
            ("n0", "n1"), ("n0", "n2"), ("n1", "n2"), ("n7", "n8")
        }
        assert scheduler.verify()
        views[algorithm] = scheduler.view.instances(solver)
    assert views["stdel"] == views["dred"]


def test_a_premise_the_request_itself_narrowed_is_still_a_candidate():
    """One request takes ``X = 2`` from ``j``'s first premise and everything
    from its second, one of two inserted atoms sharing support 0.  When the
    first premise's pair reaches ``j`` the second is already narrowed to
    ``false`` and filed in the index as such; the lookup must still offer
    what it held before the request, as the scan does, or ``j`` loses its
    instances in one pair instead of two."""
    from repro.datalog import parse_constrained_atom

    program, solver, view = _parsed(
        "iv(X) <- X >= 1 & X <= 2.\n"
        "j(X, Y) <- iv(X), iv(Y) & X <= 2 & Y >= 3 & Y <= 5.\n"
        "top(X, Y) <- j(X, Y)."
    )
    for text in ("iv(X) <- X >= 3 & X <= 5", "iv(X) <- X >= 7 & X <= 9"):
        view = insert_atom(program, view, parse_constrained_atom(text), solver).view
    request = DeletionRequest(parse_constrained_atom("iv(X) <- X >= 2 & X <= 5"))
    probed = StraightDelete(program, solver).delete(view, request)
    scanned = StraightDelete(program, solver, SCAN).delete(view, request)
    assert [str(pair) for pair in probed.p_out] == [str(pair) for pair in scanned.p_out]
    assert len(probed.p_out) == 6
    assert view_keys(probed.view) == view_keys(scanned.view)
    assert probed.view.instances(solver, range(0, 12)) == {
        ("iv", (value,)) for value in (1, 7, 8, 9)
    }


def golden_digest(seed: int) -> str:
    """SHA-256 over the view keys and the ``encode_shard`` bytes the StDel
    and DRed tracks hold after every step of the seed's stream."""
    import hashlib

    from repro.persist.codec import encode_shard

    spec = build_spec(seed)
    solver = ConstraintSolver()
    initial = compute_tp_fixpoint(spec.program, solver)
    stdel_view = dred_view = initial
    dred_program = spec.program
    digest = hashlib.sha256()

    def absorb(view) -> None:
        digest.update("\n".join(view_keys(view)).encode())
        for predicate in sorted(view.predicates()):
            digest.update(encode_shard(predicate, view.export_shard_rows(predicate)))

    absorb(initial)
    for kind, request in build_stream(spec, seed):
        if kind == "insert":
            stdel_view = insert_atom(spec.program, stdel_view, request.atom, solver).view
            dred_view = insert_atom(dred_program, dred_view, request.atom, solver).view
        else:
            stdel_view = StraightDelete(spec.program, solver).delete(stdel_view, request).view
            step = ExtendedDRed(dred_program, solver).delete(dred_view, request)
            dred_view, dred_program = step.view, step.rewritten_program
        absorb(stdel_view)
        absorb(dred_view)
    return digest.hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
def test_views_and_shard_bytes_are_the_committed_ones(seed):
    """What a derivation *is* must not move when how it is computed does.

    ``golden_views.json`` holds :func:`golden_digest` of every seed as
    computed at the commit that gave an inserted fact's leaf its origin and
    took the shard format to 2 (PR 24; with the origin erased, keys and rows
    equalled those from before clause application was specialised by pinned
    premises, PR 23, on every seed); an optimisation of the derivation
    pipeline has to reproduce every entry key and every persisted shard byte
    for byte.
    A change that means to alter them regenerates the file with
    ``{seed: golden_digest(seed) for seed in SEEDS}`` and says why.
    """
    import json
    from pathlib import Path

    golden = json.loads(Path(__file__).with_name("golden_views.json").read_text())
    assert golden_digest(seed) == golden[str(seed)]
