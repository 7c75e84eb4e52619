"""Run one benchmark workload (or ``--all``) and print its metrics as JSON.

    python3 benchmarks/e2e/run.py --workload ladder-layered --seed 0 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --workload serve-durable --trace 1
    python3 benchmarks/e2e/run.py --all --out results.json
    python3 benchmarks/e2e/run.py --all --quick

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.  The
line before it (``{"detail": ...}``) carries what is specific to the
workload.  A failed correctness check counts as a failed operation and
makes the exit code 1.  See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

WORKLOADS = ("ladder-layered", "recursive-interval", "serve-durable", "mediated-query")
#: Everything a run writes lives in one directory under this one, inside the
#: checkout (never the system's temporary directory), removed at exit.
SCRATCH_PARENT = ROOT / ".bench_scratch"


def declared() -> dict:
    """``BENCHMARK.json``: which metric is printed in which mode, and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool, spans_path):
    """One run in this process; returns the record ``main`` prints."""
    import layers
    import metrics
    import scenarios
    import serving
    from tracing import Tracer

    table = {
        "ladder-layered": (scenarios.run_ladder, scenarios.LadderConfig(), scenarios.LADDER_QUICK),
        "recursive-interval": (
            scenarios.run_recursive, scenarios.RecursiveConfig(), scenarios.RECURSIVE_QUICK),
        "mediated-query": (
            scenarios.run_mediated, scenarios.MediatedConfig(), scenarios.MEDIATED_QUICK),
        "serve-durable": (serving.run_serve, serving.ServeConfig(), serving.SERVE_QUICK),
    }
    runner, config, quick_config = table[name]
    if quick:
        config = quick_config
    fixed = scenarios.Budget(None)
    SCRATCH_PARENT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_PARENT))
    in_server = name == "serve-durable"
    tracer = None
    extra = {}

    def one_pass(budget, tracing: bool, tag: str):
        if in_server:
            directory = scratch / tag
            directory.mkdir()
            return runner(config, seed, budget, tracing, directory)
        return runner(config, seed, budget, tracer if tracing else None)

    try:
        if not trace:
            outcome = one_pass(fixed if quick else scenarios.Budget(seconds), False, "run")
            outcome.run_checks()
            values = metrics.end_to_end(outcome)
            repeats = {"plain": metrics.repeat_counts(outcome)}
        else:
            # Fixed work, done twice: without the wrappers, then with them.
            # The ratio of the two is the tracing overhead.
            config = dataclasses.replace(config, setup_repeats=1)
            plain = one_pass(fixed, False, "plain")
            plain_s, plain_intern = plain.measured_s, plain.intern
            repeats = {"plain": metrics.repeat_counts(plain)}
            # Drop the first pass's views: live constraint nodes carry their
            # memos, and the second pass must start as cold as the first.
            del plain
            gc.collect()
            tracer = Tracer()
            if not in_server:
                layers.install(tracer)
            outcome = one_pass(fixed, True, "traced")
            outcome.run_checks()
            repeats["traced"] = metrics.repeat_counts(outcome)
            extra["top_self_s"] = metrics.hot_spots(outcome)
            values = metrics.end_to_end(outcome)
            values.update(
                metrics.per_layer(
                    outcome,
                    None if in_server else plain_intern,
                    outcome.measured_s / plain_s - 1.0,
                )
            )
            if spans_path:
                rows = outcome.server["spans"] if in_server else [
                    span.as_row() for span in tracer.spans
                ]
                with open(spans_path, "w") as handle:
                    for row in rows:
                        handle.write(json.dumps(row) + "\n")
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
    failed_checks = sum(not passed for passed in outcome.checks.values())
    # A timing that calibration found too noisy to bound is declared per
    # layer instead, so the declaration decides what is printed when.
    measured = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared()["per_layer" if trace else "end_to_end"]
    }
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "quick": quick,
        "correct": outcome.failed == 0 and failed_checks == 0,
        "attempted": outcome.attempted + len(outcome.checks),
        "failed": outcome.failed + failed_checks,
        "metrics": measured,
        "detail": {**metrics.detail(outcome), "repeat_counts": repeats, **extra},
    }


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    records = []
    status = 0
    for _ in range(args.repeat):
        for name in WORKLOADS:
            for trace in (0, 1):
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--record",
                ] + (["--quick"] if args.quick else [])
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                lines = done.stdout.strip().splitlines()
                if not lines:
                    print(f"{name} (trace {trace}) printed nothing", file=sys.stderr)
                    status = 1
                    continue
                records.append(json.loads(lines[-1]))
                status = status or done.returncode
    document = {"runs": records}
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    print(json.dumps(document))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="measured time per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="tiny sizes, fixed work")
    parser.add_argument("--repeat", type=int, default=1, help="with --all: sets of runs")
    parser.add_argument("--out", help="also write the result to this file")
    parser.add_argument("--spans", help="with --trace 1: write the spans here (JSON lines)")
    parser.add_argument("--record", action="store_true", help="print the whole record last")
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    if not (SRC / "repro").is_dir():
        print(f"the program under test is missing: no {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = declared()["run_seconds"]
    if args.all:
        return run_all(args)

    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick, args.spans
    )
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    if args.record:
        print(json.dumps(record))
    else:
        print(json.dumps({"workload": record["workload"], "detail": record["detail"]}))
        print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
