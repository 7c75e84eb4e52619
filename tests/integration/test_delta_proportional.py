"""Update cost follows the change, not the view -- counted, not timed.

The paper's claim is that maintaining a materialized mediated view costs
the *change*.  These tests drive the stream path (``StreamScheduler``,
StDel, one worker) on the layered family the end-to-end benchmark uses and
count what one delete + re-insert of a base fact does:

* constraint nodes constructed (``intern_stats()`` hits + misses),
* ``solver_calls`` and ``quick_rejects`` of the maintenance passes,
* conjuncts of the clauses the pair rewrote in the effective program.

None of them may depend on the size of the view (n = 40 against n = 160)
-- for DRed too, which also may not apply more clauses on the larger view
-- or on the age of the scheduler (the 20th pair against the 1st), and a
clause the stream never unified with must stay the very object the base
program holds.  The same goes for the view's storage: the objects a pair
leaves allocated are counted, and a delta join all of whose positions are
bound must not walk a predicate's entries.

The read path is held to the same rule: a ``query`` after a pair runs a
search for the entries the pair wrote and looks the others up, and a read
of the law-enforcement mediator calls the sources that changed since the
last read and no others.

Last, one table holds the absolute work of the deletion algorithms, the
fixpoint, a coalesced stream batch and interval delete / re-insert pairs on
small fixed workloads: a count may go down, never up, and StDel never
rederives.
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace

import pytest

from repro.constraints import ConstraintSolver, Variable, equals
from repro.constraints.intern import intern_stats
from repro.datalog import Atom, FixpointEngine, compute_tp_fixpoint
from repro.datalog.atoms import ConstrainedAtom
from repro.datalog.join import DeltaJoinKernel
from repro.maintenance import (
    DeletionRequest,
    ExtendedDRed,
    InsertionRequest,
    MaintenanceStats,
    StraightDelete,
    delete_with_dred,
    delete_with_stdel,
)
from repro.stream import StreamOptions, StreamScheduler
from repro.workloads import (
    deletion_stream,
    ground_request_atom,
    make_chain_program,
    make_interval_join_program,
    make_interval_program,
    make_layered_program,
    make_path_graph_edges,
    make_transitive_closure_program,
    stream_batches,
)

X = Variable("X1")

COUNTS = ("nodes", "solver_calls", "quick_rejects", "rewritten_conjuncts")


def fact(predicate: str, value: int) -> ConstrainedAtom:
    return ConstrainedAtom(Atom(predicate, (X,)), equals(X, value))


def constructed_nodes() -> int:
    stats = intern_stats()
    return stats["hits"] + stats["misses"]


TOP = "layer3_0"


def layered_scheduler(base_facts: int, deletion_algorithm: str = "stdel"):
    """A scheduler over the layered family, and its base program."""
    spec = make_layered_program(
        base_facts=base_facts, layers=3, predicates_per_layer=2, fanin=2
    )
    assert TOP in spec.top_predicates
    scheduler = StreamScheduler(
        spec.program,
        ConstraintSolver(),
        options=StreamOptions(max_workers=1, deletion_algorithm=deletion_algorithm),
    )
    return scheduler, spec.program


def run_pairs(scheduler: StreamScheduler, values, predicate: str = "base1"):
    """Delete and re-insert each ``predicate(value)``; one count tuple per
    pair."""
    # Nodes an earlier test left as garbage keep their memos until a
    # collection frees them, and a memo hit constructs nothing: collect
    # first so the count does not depend on when the last pass ran.
    gc.collect()
    costs = []
    for value in values:
        before = scheduler.effective_program
        nodes = constructed_nodes()
        solver_calls = quick_rejects = 0
        for kind in (DeletionRequest, InsertionRequest):
            result = scheduler.apply_batch([kind(fact(predicate, value))])
            assert result.ok
            totals = result.stats.totals()
            solver_calls += totals.solver_calls
            quick_rejects += totals.quick_rejects
        nodes = constructed_nodes() - nodes
        rewritten = sum(
            len(clause.constraint.conjuncts())
            for clause in scheduler.effective_program
            if not before.has_clause(clause.number)
            or before.clause(clause.number) is not clause
        )
        costs.append((nodes, solver_calls, quick_rejects, rewritten))
    return costs


def assert_within_quarter(left, right, what: str, names=COUNTS) -> None:
    for name, a, b in zip(names, left, right):
        assert abs(a - b) <= 0.25 * max(a, b), f"{what}: {name} {a} vs {b}"


def test_one_pair_costs_the_same_on_a_four_times_larger_view():
    small = run_pairs(layered_scheduler(40)[0], [3])
    large = run_pairs(layered_scheduler(160)[0], [3])
    assert_within_quarter(small[0], large[0], "n=40 vs n=160")


def test_one_dred_pair_costs_the_same_on_a_four_times_larger_view():
    # DRed finds what P_OUT overlaps by index, purges and subsumes only what
    # it narrowed, and rederives from the rule clauses and the fact clauses
    # a P_OUT atom overlaps: none of it walks the view or the program.
    apply_clause = DeltaJoinKernel.apply_clause
    costs = []
    for base_facts in (40, 160):
        scheduler = layered_scheduler(base_facts, deletion_algorithm="dred")[0]
        applications = []

        def counted(kernel, *args, **kwargs):
            applications.append(1)
            return apply_clause(kernel, *args, **kwargs)

        DeltaJoinKernel.apply_clause = counted
        try:
            (pair,) = run_pairs(scheduler, [3])
        finally:
            DeltaJoinKernel.apply_clause = apply_clause
        costs.append((*pair, len(applications)))
        assert scheduler.verify()
    assert_within_quarter(*costs, "dred n=40 vs n=160", COUNTS + ("clause_applications",))


@pytest.mark.parametrize("base_facts", (40, 160))
def test_the_twentieth_pair_costs_what_the_first_did(base_facts):
    scheduler, _ = layered_scheduler(base_facts)
    costs = run_pairs(scheduler, range(20))
    assert_within_quarter(costs[0], costs[-1], "pair 1 vs pair 20")
    assert scheduler.verify()


@pytest.mark.parametrize("base_facts", (40, 160))
def test_a_derivation_from_ground_premises_builds_its_result_and_little_else(base_facts):
    # Every premise of the layered family pins its argument, so a clause
    # application is a comparison of values and what it constructs is the
    # derived pin (13.7 nodes a derived entry and 343 a pair when every
    # premise was renamed apart, conjoined, projected and simplified), and
    # StDel asks the solver nothing about a parent that is already ``false``
    # or rebuilt from pins (25 calls a pair before).
    spec = make_layered_program(
        base_facts=base_facts, layers=3, predicates_per_layer=2, fanin=2
    )
    before = constructed_nodes()
    scheduler = StreamScheduler(
        spec.program, ConstraintSolver(), options=StreamOptions(max_workers=1)
    )
    built = constructed_nodes() - before
    derived = len(scheduler.view) - sum(map(len, spec.base_facts.values()))
    assert built <= 3 * derived
    ((nodes, solver_calls, _, _),) = run_pairs(scheduler, [3])
    assert nodes <= 100
    assert solver_calls <= 20
    assert scheduler.verify()


def test_a_premise_is_found_among_the_reinserted_facts_by_value():
    # ``layer1_1(X) <- base0(X), base1(X)``: when ``base0(v)`` goes,
    # ``layer1_1(v)`` is rebuilt from its other premise, and a re-inserted
    # ``base1(v)`` carries the one support every re-inserted fact carries.
    # Finding it must not cost more with twenty of them than with one,
    # whichever of the twenty it is.
    alone, _ = layered_scheduler(40)
    run_pairs(alone, [7])
    (one,) = run_pairs(alone, [7], predicate="base0")

    scheduler, _ = layered_scheduler(40)
    run_pairs(scheduler, range(20))
    oldest, middle, latest = run_pairs(scheduler, (0, 7, 19), predicate="base0")
    assert_within_quarter(one, oldest, "1 vs oldest of 20 re-inserted")
    assert_within_quarter(one, middle, "1 vs 8th of 20 re-inserted")
    assert_within_quarter(one, latest, "1 vs latest of 20 re-inserted")
    assert scheduler.verify()


def test_clauses_the_stream_never_unified_with_are_shared_with_the_base():
    touched = range(20)
    scheduler, program = layered_scheduler(40)
    run_pairs(scheduler, touched)
    effective = scheduler.effective_program
    rewritten = {
        clause.number
        for clause, value in zip(program.clauses_for("base1"), range(40))
        if value in touched
    }
    assert len(rewritten) == 20
    for clause in program:
        if clause.number in rewritten:
            assert effective.clause(clause.number) is not clause
        else:
            assert effective.clause(clause.number) is clause
    # The re-inserted facts are appended; nothing else was added.
    assert len(effective) == len(program) + 20


# ----------------------------------------------------------------------
# View writes: what an update allocates and what it walks
# ----------------------------------------------------------------------
def retained_objects(scheduler: StreamScheduler, values) -> list:
    """Per delete + re-insert pair: the gc-tracked objects it leaves behind
    while a reader still holds the view the pair started from -- what
    copy-on-write is for, and what makes a whole-shard clone visible: the
    clone and the original are both alive.  The collector is off, so
    nothing an update allocated has been swept when it is counted and no
    collection's timing decides the count."""
    counts = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for value in values:
            gc.collect()
            before = len(gc.get_objects())
            pinned = scheduler.view
            for kind in (DeletionRequest, InsertionRequest):
                assert scheduler.apply_batch([kind(fact("base1", value))]).ok
            counts.append(len(gc.get_objects()) - before)
            del pinned  # released before the next pair's count starts
    finally:
        if was_enabled:
            gc.enable()
    return counts


def assert_counts_within_quarter(a: int, b: int, what: str) -> None:
    assert abs(a - b) <= 0.25 * max(a, b), f"{what}: {a} vs {b} objects"


def test_a_pair_leaves_as_many_objects_behind_on_a_four_times_larger_view():
    # The first pair of a scheduler's life also pays the lazy builds of the
    # shards it reads (child-support index, name tables): one-off, and the
    # size of the shard.  Every later pair allocates for what it *writes*:
    # a clone copies pointers, a write one part / chunk / group / bucket.
    small = retained_objects(layered_scheduler(40)[0], [0, 3])[1]
    large = retained_objects(layered_scheduler(160)[0], [0, 3])[1]
    assert_counts_within_quarter(small, large, "n=40 vs n=160")


@pytest.mark.parametrize("base_facts", (40, 160))
def test_the_twentieth_pair_leaves_what_the_first_did(base_facts):
    scheduler, _ = layered_scheduler(base_facts)
    counts = retained_objects(scheduler, range(21))[1:]
    assert_counts_within_quarter(counts[0], counts[-1], "pair 1 vs pair 20")


def test_a_bound_delta_join_never_walks_a_predicate():
    # Every body atom of the layered family shares its variable with the
    # delta, so every join position is reached through the argument index;
    # the positional pools -- a predicate's whole entry sequence, and that
    # sequence filtered by the delta -- must not be built on the way.
    from repro.datalog.join import DeltaRound
    from repro.datalog.view import MaterializedView, PredicateShard

    walks = []

    def from_a_round() -> bool:
        frame = sys._getframe(2)
        while frame is not None:
            owner = frame.f_locals.get("self")
            if isinstance(owner, DeltaRound) or type(owner).__name__ == "_DeferredPool":
                return True
            frame = frame.f_back
        return False

    def counting(cls, name):
        original = getattr(cls, name)

        def wrapper(self, *args):
            if from_a_round():
                walks.append(f"{cls.__name__}.{name}")
            return original(self, *args)

        return wrapper

    scheduler, _ = layered_scheduler(40)
    rounds = []
    iterate = DeltaRound.__iter__
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MaterializedView, "entries_for", counting(MaterializedView, "entries_for"))
        patch.setattr(PredicateShard, "to_tuple", counting(PredicateShard, "to_tuple"))
        patch.setattr(
            DeltaRound, "__iter__", lambda self: rounds.append(self) or iterate(self)
        )
        run_pairs(scheduler, [3])
    assert rounds, "the pair ran no delta round: nothing was measured"
    assert walks == []
    assert scheduler.verify()


# ----------------------------------------------------------------------
# Reads: what a query searches, and which sources it calls
# ----------------------------------------------------------------------
def searched_after_a_pair(base_facts: int):
    """``(entries a query(top) ran a search for, entries the pair wrote)``
    for one delete + re-insert pair on a view that has been read before."""
    scheduler, _ = layered_scheduler(base_facts)
    solver = scheduler.solver
    answer = scheduler.query(TOP)
    assert solver.instance_memo_misses == len(answer) == len(scheduler.view.entries_for(TOP))
    # Held, so no entry the pair writes can reuse a replaced entry's id.
    pinned = list(scheduler.view)
    before = {id(entry) for entry in pinned}
    run_pairs(scheduler, [3])
    written = sum(id(entry) not in before for entry in scheduler.view)
    misses = solver.instance_memo_misses
    assert scheduler.query(TOP) == answer
    return solver.instance_memo_misses - misses, written


def test_a_read_after_a_pair_searches_what_the_pair_wrote():
    small, small_written = searched_after_a_pair(40)
    large, large_written = searched_after_a_pair(160)
    assert small == large
    assert 0 < small <= small_written == large_written


def test_a_mediated_read_calls_the_sources_that_changed(monkeypatch):
    from repro.constraints import solutions
    from repro.workloads import make_law_enforcement_scenario

    computed = []  # candidate-set computations of the solution search
    evaluated = []  # conjunct evaluations of the solution search
    candidates = solutions._Search._membership_values
    holds = solutions._Search._holds
    monkeypatch.setattr(
        solutions._Search,
        "_membership_values",
        lambda search, *args: computed.append(1) or candidates(search, *args),
    )
    monkeypatch.setattr(
        solutions._Search,
        "_holds",
        lambda search, *args: evaluated.append(1) or holds(search, *args),
    )
    scenario = make_law_enforcement_scenario(num_people=10, photo_count=6)
    scheduler = scenario.mediator.streaming(StreamOptions(max_workers=1))
    table = scenario.dbase.database.table("empl_abc")

    def counters():
        rows = scenario.mediator.registry.call_counters()
        entered = sum(row["calls"] for row in rows.values())
        return entered, {name: row["executed"] for name, row in rows.items()}

    built, _ = counters()  # what materializing the view asked
    cold = scheduler.query("suspect")
    assert set(cold) == set(scenario.expected_suspects())
    entered, executed = counters()
    distinct = sum(executed.values())
    assert distinct <= 271  # the distinct calls of one read
    # Each distinct call is asked once per read: 1 657 when every lookup
    # went to the registry, 4 727 when every ground conjunct was re-evaluated.
    assert entered - built <= distinct
    cold_computed = len(computed)
    assert cold_computed <= 272  # 1 962 when every node recomputed every set
    # 1 282 when every candidate re-tested the DCA-atoms it was drawn from.
    assert len(evaluated) <= 604

    for toggled in scenario.abc_employees[:2]:  # two toggles: the same work
        table.delete_eq("name", toggled)
        without = scheduler.query("suspect")
        assert without == {pair for pair in cold if pair[1] != toggled}
        _, before = counters()
        table.insert((toggled, "analyst"))
        del computed[:], evaluated[:]
        assert scheduler.query("suspect") == cold
        assert len(computed) <= cold_computed
        assert len(evaluated) <= 604
        entered, after = counters()
        dbase_before, dbase_after = before.pop("dbase"), after.pop("dbase")
        assert 0 < dbase_after - dbase_before <= 8
        assert after == before  # no other source was asked anything again

    assert scheduler.query("suspect") == cold  # nothing changed in between
    assert counters() == (entered, {**after, "dbase": dbase_after})  # a lookup


@pytest.mark.parametrize("num_people", [10, 20, 40, 80])
def test_a_mediated_read_after_a_toggle_searches_the_changed_source(monkeypatch, num_people):
    # Only suspect's one dbase conjunct can change with an empl_abc row: the
    # other 20 are read from what the first read after a change remembered.
    # A whole search takes 272 candidate sets at 10 people and 966 at 80.
    from repro.constraints import solutions
    from repro.workloads import make_law_enforcement_scenario

    computed, evaluated = [], []
    candidates = solutions._Search._membership_values
    holds = solutions._Search._holds
    monkeypatch.setattr(
        solutions._Search,
        "_membership_values",
        lambda search, *args: computed.append(1) or candidates(search, *args),
    )
    monkeypatch.setattr(
        solutions._Search,
        "_holds",
        lambda search, *args: evaluated.append(1) or holds(search, *args),
    )
    scenario = make_law_enforcement_scenario(num_people=num_people, photo_count=6)
    scheduler = scenario.mediator.streaming(StreamOptions(max_workers=1))
    table = scenario.dbase.database.table("empl_abc")
    cold = scheduler.query("suspect")
    toggled = scenario.abc_employees[0]
    table.delete_eq("name", toggled)
    assert scheduler.query("suspect") == {pair for pair in cold if pair[1] != toggled}
    table.insert((toggled, "analyst"))
    del computed[:], evaluated[:]
    assert scheduler.query("suspect") == cold
    assert len(computed) <= 24
    assert len(evaluated) <= 24


# ----------------------------------------------------------------------
# The count table: absolute work on small fixed workloads
# ----------------------------------------------------------------------
def tc_spec(length: int):
    return make_transitive_closure_program(make_path_graph_edges(length))


def interval_join_spec():
    return make_interval_join_program(
        ground_facts=6, intervals_per_predicate=3, pairs=2, width=40, seed=2
    )


def small_layered_spec():
    return make_layered_program(
        base_facts=8, layers=2, predicates_per_layer=2, fanin=2, seed=1
    )


def one_deletion(spec, seed: int, predicate=None) -> dict:
    """StDel, then DRed, deleting one base fact of *spec* from its view."""
    solver = ConstraintSolver()
    view = compute_tp_fixpoint(spec.program, solver)
    atom = deletion_stream(spec, 1, seed=seed, predicate=predicate)[0].atom
    return {
        "stdel": delete_with_stdel(spec.program, view, atom, solver).stats,
        "dred": delete_with_dred(spec.program, view, atom, solver).stats,
    }


def one_fixpoint(spec) -> dict:
    engine = FixpointEngine(spec.program, ConstraintSolver())
    engine.compute()
    return {"fixpoint": engine.stats}


def three_deletions_tc14() -> dict:
    """Three deletions on tc-14, one at a time and as one ``delete_many``."""
    spec = tc_spec(14)
    requests = deletion_stream(spec, 3, seed=4)
    counts = {}
    for name, algorithm in (("stdel", StraightDelete), ("dred", ExtendedDRed)):
        solver = ConstraintSolver()
        view = FixpointEngine(spec.program, solver).compute()
        program, sequential = spec.program, MaintenanceStats()
        for request in requests:
            step = algorithm(program, solver).delete(view, request)
            view = step.view
            if name == "dred":
                program = step.rewritten_program
            sequential.merge(step.stats)
        solver = ConstraintSolver()
        view = FixpointEngine(spec.program, solver).compute()
        batched = algorithm(spec.program, solver).delete_many(view, requests)
        counts[f"{name}_sequential"] = sequential
        counts[f"{name}_batched"] = batched.stats
    return counts


def mixed_stream_batch() -> dict:
    """A coalesced batch (a duplicate, an insert-then-delete pair) against
    the same requests one at a time."""
    spec = small_layered_spec()
    batch = stream_batches(
        spec, 1, deletions=3, insertions=2, seed=3, duplicates=1, cancellations=1
    )[0]
    one_at_a_time = StreamScheduler(
        spec.program, ConstraintSolver(), options=StreamOptions(max_workers=1)
    )
    sequential = MaintenanceStats()
    for request in batch.requests:
        result = one_at_a_time.apply_batch((request,))
        assert result.ok
        sequential.merge(result.stats.totals())
    result = StreamScheduler(spec.program, ConstraintSolver()).apply_batch(
        batch.requests
    )
    assert result.ok
    assert result.stats.coalesce.deduplicated >= 1
    assert result.stats.coalesce.cancelled >= 1
    # Copy-on-write stays inside the units' write closures: at most one
    # clone per shard per pass (one deletion pass, one insertion pass).
    closure = set().union(*(unit.write_closure for unit in result.stats.units))
    assert 0 < result.stats.shard_checkouts <= 2 * len(closure)
    return {"sequential": sequential, "batched": result.stats.totals()}


def interval_pairs() -> dict:
    """Four delete / re-insert pairs of points inside interval facts, on a
    StDel and on a DRed stream: constraint nodes constructed and calls of
    the branch procedure (a box is decided without it)."""
    spec = interval_join_spec()
    points = [
        (predicate, values)
        for predicate in ("iv0", "iv1")
        for values in spec.base_facts[predicate]
    ][:4]
    counts = {}
    branch = ConstraintSolver._branch_satisfiable
    for algorithm in ("stdel", "dred"):
        scheduler = StreamScheduler(
            spec.program,
            ConstraintSolver(),
            options=StreamOptions(max_workers=1, deletion_algorithm=algorithm),
        )
        checks = []

        def counted(solver, *args):
            checks.append(1)
            return branch(solver, *args)

        gc.collect()
        nodes = constructed_nodes()
        ConstraintSolver._branch_satisfiable = counted
        try:
            for predicate, values in points:
                for kind in (DeletionRequest, InsertionRequest):
                    result = scheduler.apply_batch([kind(ground_request_atom(predicate, values))])
                    assert result.ok
        finally:
            ConstraintSolver._branch_satisfiable = branch
        counts[f"pairs_{algorithm}"] = SimpleNamespace(
            nodes=constructed_nodes() - nodes, branch_checks=len(checks)
        )
    return counts


SCENARIOS = {
    "deletion_layered_small": lambda: one_deletion(small_layered_spec(), seed=1),
    "deletion_chain_depth2": lambda: one_deletion(
        make_chain_program(base_facts=6, depth=2), seed=3
    ),
    "deletion_interval": lambda: one_deletion(
        make_interval_program(
            predicates=2, intervals_per_predicate=3, width=40, seed=2
        ),
        seed=2,
    ),
    "deletion_interval_join": lambda: one_deletion(
        interval_join_spec(), seed=2, predicate="iv0"
    ),
    "deletion_recursive_tc6": lambda: one_deletion(tc_spec(6), seed=4),
    "deletion_recursive_tc10": lambda: one_deletion(tc_spec(10), seed=4),
    "deletion_recursive_tc14": lambda: one_deletion(tc_spec(14), seed=4),
    "fixpoint_tc": lambda: one_fixpoint(tc_spec(6)),
    "fixpoint_interval_join": lambda: one_fixpoint(interval_join_spec()),
    "deletion_batch_tc14": three_deletions_tc14,
    "stream_mixed_batch": mixed_stream_batch,
    "interval_pairs": interval_pairs,
}

#: The most each count may read: the figure measured when the table was
#: written.  A change that does less work lowers a ceiling in its own diff;
#: one that does more fails here.
CEILINGS = {
    "deletion_layered_small": {
        "stdel.solver_calls": 49,
        "dred.derivation_attempts": 7,
        "dred.solver_calls": 50,
    },
    "deletion_chain_depth2": {
        "stdel.solver_calls": 19,
        "dred.derivation_attempts": 4,
        "dred.solver_calls": 20,
    },
    "deletion_interval": {
        "stdel.solver_calls": 18,
        "dred.derivation_attempts": 4,
        "dred.solver_calls": 23,
    },
    "deletion_interval_join": {
        "stdel.solver_calls": 40,
        "dred.derivation_attempts": 2,
        "dred.solver_calls": 45,
    },
    "deletion_recursive_tc6": {
        "stdel.solver_calls": 28,
        "dred.derivation_attempts": 12,
        "dred.solver_calls": 29,
    },
    "deletion_recursive_tc10": {
        "stdel.solver_calls": 66,
        "dred.derivation_attempts": 35,
        "dred.solver_calls": 67,
    },
    "deletion_recursive_tc14": {
        "stdel.solver_calls": 120,
        "dred.derivation_attempts": 51,
        "dred.solver_calls": 121,
    },
    "fixpoint_tc": {"fixpoint.derivation_attempts": 21},
    "fixpoint_interval_join": {"fixpoint.derivation_attempts": 12},
    "deletion_batch_tc14": {
        "stdel_sequential.solver_calls": 259,
        "stdel_batched.solver_calls": 122,
        "dred_sequential.derivation_attempts": 68,
        "dred_sequential.solver_calls": 262,
        "dred_batched.derivation_attempts": 84,
        "dred_batched.solver_calls": 125,
    },
    "stream_mixed_batch": {
        "sequential.derivation_attempts": 1,
        "sequential.solver_calls": 17,
        "batched.derivation_attempts": 1,
        "batched.solver_calls": 16,
    },
    "interval_pairs": {
        "pairs_stdel.nodes": 340,
        "pairs_stdel.branch_checks": 20,
        "pairs_dred.nodes": 961,
        "pairs_dred.branch_checks": 37,
    },
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_counted_work_stays_at_or_below_its_ceiling(scenario):
    gc.collect()
    passes = SCENARIOS[scenario]()
    counts = {
        f"{name}.{counter}": getattr(stats, counter)
        for name, stats in passes.items()
        for counter in ("derivation_attempts", "solver_calls", "nodes", "branch_checks")
        if hasattr(stats, counter)
    }
    # Section 3's claim, exactly: StDel replaces constraints and removes
    # entries, and never rederives one.
    for name in passes:
        if name.startswith("stdel"):
            assert counts[f"{name}.derivation_attempts"] == 0, name
    over = {
        key: (counts[key], ceiling)
        for key, ceiling in CEILINGS[scenario].items()
        if counts[key] > ceiling
    }
    assert not over, f"{scenario}: (count, ceiling) {over}"
    # A batch never costs what its requests cost one at a time.
    for name in passes:
        if name.endswith("batched"):
            batched, sequential = (
                counts[f"{run}.derivation_attempts"] + counts[f"{run}.solver_calls"]
                for run in (name, name.replace("batched", "sequential"))
            )
            assert batched < sequential, name
