"""Deterministic self-tests of the benchmark harness (collected by tier-1).

Nothing here asserts anything about wall-clock time.  The ``--quick`` runs
use tiny sizes and fixed work; all of them run at once, in subprocesses, as
the driver would run them.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from tracing import Span, Tracer, covered, percentile, self_times  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Workloads also run untraced here: the server one and one in-process one
#: (the untraced branch of ``run.py`` does not depend on the workload, and
#: every extra process costs tier-1 a second).
UNTRACED = ("serve-durable", "mediated-query")
#: Counts that must repeat exactly when the same fixed work is done twice.
EXACT = (
    "maintenance.derivation_attempts", "maintenance.solver_calls",
    "maintenance.index_probes", "maintenance.support_probes",
    "maintenance.quick_rejects", "maintenance.changed_entries", "stream.units",
    "persist.replayed_batches",
)


@pytest.fixture(scope="module")
def quick_runs():
    """``(workload, trace) -> record`` of every quick run, started together."""
    jobs = [(name, 1) for name in WORKLOADS] + [(name, 0) for name in UNTRACED]
    processes = {
        job: subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", job[0], "--quick",
             "--trace", str(job[1]), "--record"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        for job in jobs
    }
    records = {}
    for job, process in processes.items():
        stdout, _ = process.communicate(timeout=120)
        assert process.returncode == 0, f"{job} exited with {process.returncode}"
        records[job] = json.loads(stdout.strip().splitlines()[-1])
    return records


# ----------------------------------------------------------------------
# The declaration and what the runs print
# ----------------------------------------------------------------------
def test_declared_names_are_well_formed_and_unique():
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]] + WORKLOADS
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in DECLARED["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])


def test_declaration_covers_exactly_what_the_code_computes():
    import metrics

    computed = {name for name, _, _ in metrics.END_TO_END + metrics.PER_LAYER}
    declared = {m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
    assert declared == computed


@pytest.mark.parametrize("trace", (0, 1))
def test_quick_runs_print_the_declared_metrics(quick_runs, trace):
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    for name in WORKLOADS if trace else UNTRACED:
        printed = quick_runs[(name, trace)]["metrics"]
        assert list(printed) == [m["name"] for m in declared]
        assert all(printed[m["name"]]["unit"] == m["unit"] for m in declared)
        if not trace:
            assert all(metric["value"] > 0 for metric in printed.values())


def test_quick_runs_pass_their_correctness_checks(quick_runs):
    for job, record in quick_runs.items():
        assert record["correct"], (job, record["detail"]["checks"])
        assert record["failed"] == 0 and record["attempted"] >= 1
        assert all(record["detail"]["checks"].values())
    # The crash/restart really happened and every update survived it.
    checks = quick_runs[("serve-durable", 0)]["detail"]["checks"]
    assert checks["acknowledged_updates_survive_crash"]


def test_fixed_work_repeats_its_counts_exactly(quick_runs):
    # A traced run does the same fixed work twice, without and with the
    # wrappers: both passes must agree on every count the program makes
    # (and so must a third pass in another process, where there is one).
    for name in WORKLOADS:
        if name == "serve-durable":
            # Its batches form as requests happen to arrive and its reader
            # is an open loop: counts there are close, not equal.
            continue
        traced = quick_runs[(name, 1)]
        counts = traced["detail"]["repeat_counts"]
        assert counts["plain"] == counts["traced"]
        assert any(counts["plain"].values()) or name == "mediated-query"
        for metric in EXACT:
            assert traced["metrics"][metric]["value"] == counts["plain"][metric], (name, metric)
        if name in UNTRACED:
            untraced = quick_runs[(name, 0)]
            assert untraced["detail"]["repeat_counts"]["plain"] == counts["plain"]
            assert untraced["attempted"] == traced["attempted"]


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def _streams(seed: int) -> bytes:
    edges = [(f"n{a}", f"n{a + 1}") for a in range(8)]
    non_edges = [(f"n{a}", f"n{a + 2}") for a in range(7)]
    points = [("iv0", value) for value in range(6)]
    grounds = [("g0", value) for value in range(6)]
    return json.dumps(
        [
            gen.layered_pairs(50, 5, seed, "r0/e0"),
            gen.serve_trickle(24, 2, seed)[:12],
            gen.burst_deletions(24, 2, seed, 0),
            gen.serve_burst(24, 2, seed, 1),
            gen.node_names(9, seed),
            gen.recursive_episode(edges, non_edges, points, grounds, 3, seed, 0),
            gen.employee_toggles(["a", "b", "c"], 7, seed),
        ]
    ).encode()


def test_generators_are_byte_reproducible_and_seed_sensitive():
    assert _streams(3) == _streams(3)
    assert _streams(3) != _streams(4)


def test_no_value_is_touched_twice_in_one_server_life():
    # See README "found on the seed commit": phase A and phase B must not
    # share values.
    base_facts, tenants = 24, 2
    touched = [
        (op[1].split("_")[0], op[2])
        for op in gen.serve_trickle(base_facts, tenants, 0)
        if op[0] == "delete"
    ]
    for burst in range(gen.burst_capacity(base_facts, tenants) + 1):
        touched += [
            (op[1].split("_")[0], op[2])
            for op in gen.burst_deletions(base_facts, tenants, 0, burst)
        ]
    assert len(touched) == len(set(touched))


def test_a_burst_is_32_requests_with_duplicates_and_cancelling_pairs():
    ops = gen.serve_burst(24, 2, 0, 1)
    assert len(ops) == 32
    assert len(set(ops)) == 28  # 4 verbatim duplicates
    fresh = [op for op in ops if op[2][0] >= 240]
    assert sorted(op[0] for op in fresh) == ["delete", "delete", "insert", "insert"]


# ----------------------------------------------------------------------
# Percentiles and span arithmetic
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 101))
    assert percentile(samples, 90) == 90
    assert percentile(samples, 10) == 10
    with pytest.raises(ValueError):
        percentile(samples[:99], 90)  # 9.9 samples beyond
    with pytest.raises(ValueError):
        percentile(samples, 95)  # 5 samples beyond
    assert percentile(list(range(1, 201)), 95) == 190


def test_covered_is_the_union_clipped_to_the_parent():
    assert covered([(1.0, 3.0), (2.0, 5.0), (7.0, 9.0)], 0.0, 8.0) == pytest.approx(5.0)
    assert covered([], 0.0, 1.0) == 0.0


def test_self_time_with_nested_and_overlapping_children_on_two_threads():
    spans = [
        Span(1, None, "batch", 0.0, 10.0, thread=1, leaf_s=0.5),
        # Two units on two threads, overlapping from 4.0 to 5.0.
        Span(2, 1, "unit", 1.0, 5.0, thread=2, leaf_s=1.0),
        Span(3, 1, "unit", 4.0, 8.0, thread=3),
        Span(4, 2, "pass", 2.0, 3.0, thread=2),
        # A child reaching past its parent's end is clipped.
        Span(5, 3, "pass", 7.0, 9.0, thread=3),
    ]
    selves = self_times(spans)
    assert selves[1] == pytest.approx(10.0 - 7.0 - 0.5)  # union [1, 8], once
    assert selves[2] == pytest.approx(4.0 - 1.0 - 1.0)
    assert selves[3] == pytest.approx(4.0 - 1.0)
    assert selves[4] == pytest.approx(1.0)
    assert selves[5] == pytest.approx(2.0)


def test_wrappers_charge_each_call_its_own_time_only():
    tracer = Tracer()
    ticks = iter(range(100))
    import tracing

    original = tracing._perf
    tracing._perf = lambda: float(next(ticks))  # one tick per clock reading
    try:
        leaf = tracer.wrap("leaf", lambda: None, coarse=False)
        inner = tracer.wrap("inner", lambda: leaf(), coarse=True)
        outer = tracer.wrap("outer", lambda: (inner(), leaf()), coarse=True)
        outer()
    finally:
        tracing._perf = original
    calls = tracer.calls()
    # outer 0..7, inner 1..4, leaf 2..3 and 5..6
    assert calls["outer"] == (1, 7.0 - 3.0 - 1.0, 7.0)
    assert calls["inner"] == (1, 3.0 - 1.0, 3.0)
    assert calls["leaf"] == (2, 2.0, 2.0)
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].leaf_s == 1.0 and by_name["inner"].leaf_s == 1.0
    assert self_times(tracer.spans)[by_name["outer"].id] == 3.0


def test_patched_functions_are_replaced_wherever_bound_and_restored():
    import repro.maintenance.declarative as declarative
    import repro.stream.scheduler as scheduler

    original = declarative.deletion_rewrite
    assert scheduler.deletion_rewrite is original
    tracer = Tracer()
    replaced = tracer.patch_function(original, "maintenance.rewrite", coarse=True)
    try:
        assert replaced >= 2
        assert scheduler.deletion_rewrite is declarative.deletion_rewrite is not original
    finally:
        tracer.uninstall()
    assert scheduler.deletion_rewrite is declarative.deletion_rewrite is original


def test_a_thread_has_its_own_frames():
    tracer = Tracer()
    work = tracer.wrap("work", lambda: None, coarse=True)
    threads = [threading.Thread(target=work) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert tracer.calls()["work"][0] == 3
    assert all(span.parent is None for span in tracer.spans)
