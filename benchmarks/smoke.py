"""Smoke benchmark: every claim's smallest configuration, one JSON snapshot.

Runs each workload family at its smallest size in well under a minute and
writes a ``BENCH_smoke.json`` snapshot with wall-clock times *and* the
operation counters (``derivation_attempts``, ``solver_calls``, ...), so
successive PRs have a perf trajectory to compare against (latencies and
scaling are ``benchmarks/e2e/``'s job)::

    PYTHONPATH=src python benchmarks/smoke.py [--out PATH] [--label TEXT]

Counters matter more than times here: they are deterministic across machines,
so a regression in the *shape* of the work (e.g. a delta join decaying back
into a Cartesian product) is visible even when the hardware differs.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.conftest import (  # noqa: E402
    build_chain_deletion_scenario,
    build_interval_deletion_scenario,
    build_interval_join_deletion_scenario,
    build_layered_deletion_scenario,
    build_tc_deletion_scenario,
)
from repro.constraints import ConstraintSolver  # noqa: E402
from repro.datalog import (  # noqa: E402
    FixpointEngine,
    parse_constrained_atom,
    parse_program,
)
from repro.datalog.join import EngineOptions  # noqa: E402
from repro.maintenance import (  # noqa: E402
    DeletionRequest,
    MaintenanceStats,
    TpExternalMaintenance,
    WpExternalMaintenance,
    delete_with_dred,
    delete_with_stdel,
    insert_atom,
    recompute_after_deletion,
)
from repro.maintenance import (  # noqa: E402
    ExtendedDRed,
    StraightDelete,
)
from repro.stream import StreamOptions, StreamScheduler  # noqa: E402
from repro.workloads import (  # noqa: E402
    deletion_stream,
    insertion_stream,
    make_interval_join_program,
    make_layered_program,
    make_path_graph_edges,
    make_transitive_closure_program,
    stream_batches,
)


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def family(run):
    """Start every run of a family from a collected heap.

    The hash-consing tables hold their nodes weakly, so whether a family
    finds a node still interned depends on whether the cyclic garbage the
    families before it left behind has been collected yet -- on when a
    generation-2 pass happens to land.  Collecting first makes every
    counter in the snapshot repeat exactly.
    """

    @functools.wraps(run)
    def collected(*args, **kwargs):
        gc.collect()
        return run(*args, **kwargs)

    return collected


@family
def run_deletion_family(scenario) -> dict:
    results = {}
    for algorithm, fn in (
        ("stdel", delete_with_stdel),
        ("dred", delete_with_dred),
        ("recompute", recompute_after_deletion),
    ):
        seconds, outcome = timed(
            fn, scenario.program, scenario.view, scenario.request.atom, scenario.solver
        )
        results[algorithm] = {
            "seconds": round(seconds, 4),
            "stats": outcome.stats.as_dict(),
        }
    return {
        "workload": scenario.spec.description,
        "view_entries": len(scenario.view),
        **results,
    }


@family
def run_materialization(length: int) -> dict:
    spec = make_transitive_closure_program(make_path_graph_edges(length))
    engine = FixpointEngine(spec.program, ConstraintSolver())
    seconds, view = timed(engine.compute)
    return {
        "workload": spec.description,
        "seconds": round(seconds, 4),
        "view_entries": len(view),
        "iterations": engine.stats.iterations,
        "derivation_attempts": engine.stats.derivation_attempts,
        "clauses_skipped": engine.stats.clauses_skipped,
    }


@family
def run_interval_materialization() -> dict:
    """Interval-join T_P with range postings on vs off.

    The gated ``derivation_attempts`` counter is the ranged run; the
    ``derivation_attempts_unranged`` companion (not gated -- it measures the
    *fallback*, kept only for the ratio) shows what the unbound-bucket
    fallback would have enumerated.
    """
    spec = make_interval_join_program(
        ground_facts=6, intervals_per_predicate=3, pairs=2, width=40, seed=2
    )
    ranged = FixpointEngine(
        spec.program, ConstraintSolver(), EngineOptions(range_postings=True)
    )
    seconds, view = timed(ranged.compute)
    unranged = FixpointEngine(
        spec.program, ConstraintSolver(), EngineOptions(range_postings=False)
    )
    unranged.compute()
    return {
        "workload": spec.description,
        "seconds": round(seconds, 4),
        "view_entries": len(view),
        "derivation_attempts": ranged.stats.derivation_attempts,
        "derivation_attempts_unranged": unranged.stats.derivation_attempts,
        "index_probes": ranged.stats.index_probes,
    }


@family
def run_deletion_batch(length: int = 14, deletions: int = 3) -> dict:
    """Batched vs one-at-a-time deletion on the recursive tc workload.

    For each deletion algorithm the same *deletions* requests are applied
    once sequentially (summed stats) and once through ``delete_many``; the
    regression test asserts the batched counters never exceed the
    sequential ones, the paper-shaped half of the stream subsystem's
    acceptance bar.
    """
    spec = make_transitive_closure_program(make_path_graph_edges(length))
    requests = deletion_stream(spec, deletions, seed=4)
    result: dict = {"workload": f"{spec.description} x {deletions} deletions"}
    for algorithm in ("stdel", "dred"):
        solver = ConstraintSolver()
        view = FixpointEngine(spec.program, solver).compute()
        sequential = None
        program = spec.program
        seconds_sequential = 0.0
        for request in requests:
            if algorithm == "stdel":
                step_seconds, step = timed(
                    StraightDelete(spec.program, solver).delete, view, request
                )
            else:
                step_seconds, step = timed(
                    ExtendedDRed(program, solver).delete, view, request
                )
                program = step.rewritten_program
            seconds_sequential += step_seconds
            view = step.view
            if sequential is None:
                sequential = step.stats
            else:
                sequential.merge(step.stats)
        solver = ConstraintSolver()
        view = FixpointEngine(spec.program, solver).compute()
        if algorithm == "stdel":
            seconds_batched, batched = timed(
                StraightDelete(spec.program, solver).delete_many, view, requests
            )
        else:
            seconds_batched, batched = timed(
                ExtendedDRed(spec.program, solver).delete_many, view, requests
            )
        result[f"{algorithm}_sequential"] = {
            "seconds": round(seconds_sequential, 4),
            "stats": sequential.as_dict(),
        }
        result[f"{algorithm}_batched"] = {
            "seconds": round(seconds_batched, 4),
            "stats": batched.stats.as_dict(),
        }
    return result


@family
def run_stream_mixed_batch() -> dict:
    """A coalesced mixed batch through the stream scheduler vs one-at-a-time.

    The batch carries duplicates and an insert-then-delete pair, so the
    snapshot also records what coalescing removed; the `sequential` payload
    is the same stream as batches of one request, not coalesced.

    The batched run forces ``max_workers=4``: with predicate-sharded
    storage the parallel units check out (copy-on-write) only the shards of
    their write closures, so the snapshot records ``shard_checkouts``
    against the closure size and the view's predicate count -- the gate
    asserts untouched predicates are never copied.
    """
    spec = make_layered_program(
        base_facts=8, layers=2, predicates_per_layer=2, fanin=2, seed=1
    )
    batch = stream_batches(
        spec, 1, deletions=3, insertions=2, seed=3, duplicates=1, cancellations=1
    )[0]

    one_at_a_time = StreamScheduler(
        spec.program, ConstraintSolver(), options=StreamOptions(max_workers=1)
    )

    def apply_one_at_a_time() -> MaintenanceStats:
        total = MaintenanceStats()
        for request in batch.requests:
            result = one_at_a_time.apply_batch((request,), coalesce=False)
            assert result.ok, result.failed_units
            total.merge(result.stats.totals())
        return total

    seconds_sequential, sequential = timed(apply_one_at_a_time)

    scheduler = StreamScheduler(
        spec.program, ConstraintSolver(), options=StreamOptions(max_workers=4)
    )
    seconds_batched, result = timed(scheduler.apply_batch, batch.requests)
    stream_stats = result.stats.as_dict()
    closure = set()
    for unit in result.stats.units:
        closure.update(unit.write_closure)

    # Two independent towers, one of them untouched by the batch: its
    # shards must come through the parallel publish by pointer, never
    # copied (closure strictly smaller than the view's predicate set).
    towers = parse_program(
        """
        left(X) <- X = 1.
        left(X) <- X = 2.
        right(X) <- X = 11.
        right(X) <- X = 12.
        mid(X) <- left(X).
        top(X) <- mid(X).
        other(X) <- right(X).
        """
    )
    tower_scheduler = StreamScheduler(
        towers, ConstraintSolver(), options=StreamOptions(max_workers=4)
    )
    tower_result = tower_scheduler.apply_batch(
        [DeletionRequest(parse_constrained_atom("left(X) <- X = 1"))]
    )
    tower_closure = set()
    for unit in tower_result.stats.units:
        tower_closure.update(unit.write_closure)

    return {
        "workload": f"{spec.description} stream batch "
        f"({len(batch.requests)} requests incl. 1 duplicate + 1 cancelling pair, "
        f"max_workers=4)",
        "sequential": {
            "seconds": round(seconds_sequential, 4),
            "stats": sequential.as_dict(),
        },
        "batched": {
            "seconds": round(seconds_batched, 4),
            "stats": stream_stats["stats"],
        },
        "coalesce": stream_stats["coalesce"],
        "units": stream_stats["units"],
        "shard_checkouts": stream_stats["shard_checkouts"],
        "closure_predicates": len(closure),
        "view_predicates": len(scheduler.view.predicates()),
        "tower": {
            "shard_checkouts": tower_result.stats.shard_checkouts,
            "closure_predicates": len(tower_closure),
            "view_predicates": len(tower_scheduler.view.predicates()),
        },
    }


@family
def run_analysis() -> dict:
    """Static-analyzer smoke: diagnostics and closure shape per workload.

    The analyzer runs on every mediator build and scheduler construction,
    so the snapshot records its cost and -- more usefully -- the *shape* of
    what it infers: diagnostics by severity (all the smoke workloads must
    stay clean), write-closure sizes, and how many (predicate, position)
    pairs stay interval-eligible (the range-postings routing table).
    """
    from repro.analysis import analyze_program

    families = {
        "layered": make_layered_program(
            base_facts=8, layers=2, predicates_per_layer=2, fanin=2, seed=1
        ).program,
        "tc14": make_transitive_closure_program(make_path_graph_edges(14)).program,
        "interval_join": make_interval_join_program(
            ground_facts=6, intervals_per_predicate=3, pairs=2, width=40, seed=2
        ).program,
    }
    out: dict = {"workload": "analyze_program over the smoke workloads"}
    for name, program in families.items():
        seconds, report = timed(analyze_program, program)
        closures = report.write_closures
        sizes = [len(closure) for closure in closures.values()]
        out[name] = {
            "seconds": round(seconds, 4),
            "severity": report.severity_counts(),
            "predicates": len(report.predicates),
            "components": len(report.components),
            "closure_groups": len(set(report.closure_groups.values())),
            "mean_write_closure": round(sum(sizes) / max(1, len(sizes)), 2),
            "max_write_closure": max(sizes, default=0),
            "interval_positions": len(report.interval_positions),
        }
    return out


@family
def run_interning() -> dict:
    """Hash-consing effectiveness on a churny maintenance workload.

    Snapshots the intern tables and the identity fast-path event counters
    (:func:`repro.constraints.intern.intern_stats`) around a recursive
    deletion pass per algorithm plus a coalesced mixed stream batch, and
    reports the deltas: intern hit ratio, pointer-identity subsumptions and
    subtractions (each one a counted solver call that did not happen), and
    the per-node canonical/satisfiability memo hits.  The embedded
    ``stdel``/``dred`` stats feed the ordinary counter gate, so solver-call
    regressions in the identity paths show up here like everywhere else.

    The stream batch runs with ``max_workers=1``: the event counters are
    plain ints bumped without a lock, exact only single-threaded, and this
    family exists to *gate* them.
    """
    from repro.constraints.intern import intern_stats

    before = intern_stats()
    start = time.perf_counter()

    scenario = build_tc_deletion_scenario(length=10)
    results: dict = {
        "workload": f"{scenario.spec.description} churn "
        "(per-algorithm deletion + coalesced mixed batch, max_workers=1)",
    }
    for algorithm, fn in (
        ("stdel", delete_with_stdel),
        ("dred", delete_with_dred),
    ):
        seconds, outcome = timed(
            fn, scenario.program, scenario.view, scenario.request.atom, scenario.solver
        )
        results[algorithm] = {
            "seconds": round(seconds, 4),
            "stats": outcome.stats.as_dict(),
        }

    spec = make_layered_program(
        base_facts=6, layers=2, predicates_per_layer=2, fanin=2, seed=9
    )
    batch = stream_batches(
        spec, 1, deletions=2, insertions=2, seed=9, duplicates=1, cancellations=1
    )[0]
    scheduler = StreamScheduler(
        spec.program, ConstraintSolver(), options=StreamOptions(max_workers=1)
    )
    result = scheduler.apply_batch(batch.requests)
    results["coalesce"] = result.stats.as_dict()["coalesce"]

    after = intern_stats()
    events = {
        name: after["events"][name] - before["events"].get(name, 0)
        for name in after["events"]
    }
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    results["seconds"] = round(time.perf_counter() - start, 4)
    results["intern"] = {
        "hits": hits,
        "misses": misses,
        # Reuse ratio across all tables; prior in-process interning can only
        # raise it (nodes already live), so the gate's floor is stable.
        "hit_ratio": round(hits / max(1, hits + misses), 4),
        "identity_hits": events["identity_subsumptions"]
        + events["identity_subtractions"],
        "events": events,
        # Live-node counts (absolute, not a delta): weak tables, so this is
        # whatever the whole process keeps alive -- informational only.
        "table_sizes": {
            name: row["size"] for name, row in after["tables"].items()
        },
    }
    return results


@family
def run_insertion(scenario) -> dict:
    request = insertion_stream(scenario.spec, 1, seed=5)[0]
    seconds, outcome = timed(
        insert_atom, scenario.program, scenario.view, request.atom, scenario.solver
    )
    return {
        "workload": scenario.spec.description,
        "seconds": round(seconds, 4),
        "stats": outcome.stats.as_dict(),
    }


@family
def run_external(spec) -> dict:
    # W_P keeps unsolvable entries, so it needs a non-recursive workload
    # (on recursive programs those entries feed further joins forever).
    solver = ConstraintSolver()
    tp_seconds, tp = timed(TpExternalMaintenance, spec.program, solver)
    wp_seconds, wp = timed(WpExternalMaintenance, spec.program, solver)
    tp_change, _ = timed(tp.on_source_changed)
    wp_change, _ = timed(wp.on_source_changed)
    return {
        "workload": spec.description,
        "tp_materialize_seconds": round(tp_seconds, 4),
        "wp_materialize_seconds": round(wp_seconds, 4),
        "tp_source_change_seconds": round(tp_change, 4),
        "wp_source_change_seconds": round(wp_change, 4),
    }


def run_smoke(include_external: bool = True) -> dict:
    """Run the smoke families; ``include_external=False`` keeps only the
    families whose counters are deterministic (the regression gate's diet --
    the W_P materialization is the one slow, counterless family)."""
    snapshot: dict = {}
    snapshot["fixpoint_tc"] = run_materialization(length=6)
    snapshot["deletion_layered_small"] = run_deletion_family(
        build_layered_deletion_scenario("small")
    )
    snapshot["deletion_chain_depth2"] = run_deletion_family(
        build_chain_deletion_scenario(depth=2, base_facts=6)
    )
    snapshot["deletion_interval"] = run_deletion_family(
        build_interval_deletion_scenario(predicates=2)
    )
    # Interval-heavy joins: the range-posting + child-support-index regime.
    # ``stdel.support_probes`` against ``stdel.stdel_scan_equivalent`` shows
    # step 3's probed match set vs the per-pair view scan it replaced.
    snapshot["deletion_interval_join"] = run_deletion_family(
        build_interval_join_deletion_scenario()
    )
    snapshot["fixpoint_interval_join"] = run_interval_materialization()
    snapshot["deletion_recursive_tc6"] = run_deletion_family(
        build_tc_deletion_scenario(length=6)
    )
    # The largest recursive size: the headline counters of the
    # hash-join / quick-reject / delta-rederivation claims.
    snapshot["deletion_recursive_tc14"] = run_deletion_family(
        build_tc_deletion_scenario(length=14)
    )
    snapshot["insertion_layered_small"] = run_insertion(
        build_layered_deletion_scenario("small")
    )
    # Batched maintenance: the stream subsystem's amortization claims.
    snapshot["deletion_batch_tc14"] = run_deletion_batch(length=14, deletions=3)
    snapshot["stream_mixed_batch"] = run_stream_mixed_batch()
    snapshot["constraint_interning"] = run_interning()
    snapshot["static_analysis"] = run_analysis()
    if include_external:
        snapshot["external_layered_small"] = run_external(
            build_layered_deletion_scenario("small").spec
        )
    return snapshot


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_smoke.json"),
        help="where to write the snapshot (default: repo root BENCH_smoke.json)",
    )
    parser.add_argument(
        "--label", default="", help="free-form label stored in the snapshot"
    )
    args = parser.parse_args(argv)

    start = time.perf_counter()
    results = run_smoke()
    total = time.perf_counter() - start

    snapshot = {
        "label": args.label,
        "python": platform.python_version(),
        "total_seconds": round(total, 2),
        "results": results,
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"smoke benchmarks finished in {total:.1f}s -> {out_path}")
    for family, data in results.items():
        keys = [k for k in ("seconds", "view_entries") if k in data]
        brief = ", ".join(f"{k}={data[k]}" for k in keys)
        print(f"  {family}: {brief or 'ok'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
