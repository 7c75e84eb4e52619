"""Compare benchmark results, calibrate the bounds, judge a claimed gain.

    compare.py A.json B.json
        One row per (workload, metric): both medians, the ratio B / A (base:
        A, the parent) and the verdict against the metric's bound.  A metric
        whose spread between A's own runs exceeds its bound is *unresolved*,
        not unchanged.  Exit code 1 when anything regressed.

    compare.py --calibrate R1.json R2.json R3.json [--write]
        From >= 3 runs of one commit per workload: the spread of every
        end-to-end metric (recorded in calibration.json next to this file),
        each bound widened to 1.5 x spread where it was too tight (never above
        the driver's cap of 0.25), and any timing whose spread exceeds the
        cap demoted to a per-layer metric.  --write updates BENCHMARK.json.

    compare.py --run-pairs PARENT_DIR CHANGE_DIR --workload W --out P.json
        Run >= 10 pairs of (parent, change) checkouts, alternating which side
        goes first, every pair on its own seed.

    compare.py --paired P.json
        The rule for claiming a gain in a small sandbox: the change wins at
        least 9/10 of all pairs (ties count for neither) and the medians
        differ by more than the distance between the parent's quartiles.

Inputs are the documents ``run.py --all --out`` writes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"
CALIBRATION = HERE / "calibration.json"
#: The driver accepts no bound above this share of the parent's median.
BOUND_CAP = 0.25

#: Workload-specific numbers on the ``detail`` line of untraced runs:
#: ``name -> (better, bound, absolute)``.  They cannot be declared end to
#: end (the driver wants every such metric from every workload), so this
#: table is where their bounds live.
DETAIL_BOUNDS: Dict[str, Tuple[str, float, bool]] = {
    "scale_exponent": ("lower", 0.10, True),
    "dred_update_ms_p50": ("lower", 0.15, False),
    "recover_s": ("lower", 0.25, False),
    "disk_bytes_per_update": ("lower", 0.10, False),
    "update_ms_p90": ("lower", 0.25, False),
    "query_ms_p90": ("lower", 0.25, False),
}

Samples = Dict[Tuple[str, str], List[float]]


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median (the range,
    when there are too few values for quartiles)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(median)


def load(paths: Iterable[str], trace: int = 0) -> Samples:
    """``(workload, metric) -> values`` over every run in *paths*."""
    samples: Samples = {}
    for path in paths:
        for run in json.loads(Path(path).read_text())["runs"]:
            if run["trace"] != trace:
                continue
            numbers = {name: m["value"] for name, m in run["metrics"].items()}
            if not trace:
                numbers.update(
                    {k: v for k, v in run["detail"].items() if k in DETAIL_BOUNDS}
                )
            numbers["failed_frac"] = run["failed"] / run["attempted"]
            for name, value in numbers.items():
                samples.setdefault((run["workload"], name), []).append(value)
    return samples


def bounds() -> Dict[str, Tuple[str, float, bool]]:
    """``metric -> (better, bound, absolute)``, declared and detail."""
    table = dict(DETAIL_BOUNDS)
    for metric in json.loads(BENCHMARK.read_text())["end_to_end"]:
        table[metric["name"]] = (metric["better"], metric["bound"], False)
    table["failed_frac"] = ("lower", 0.0, True)  # may not rise
    return table


def worse_by(better: str, absolute: bool, a: float, b: float) -> float:
    """How much worse *b* is than *a*: a share of *a*, or a difference."""
    delta = (b - a) if better == "lower" else (a - b)
    return delta if absolute or a == 0 else delta / abs(a)


def compare(a_paths: Sequence[str], b_paths: Sequence[str]) -> int:
    a, b = load(a_paths), load(b_paths)
    table = bounds()
    print(f"{'workload':20} {'metric':22} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'bound':>6} {'A spread':>8}  verdict")
    regressed = 0
    for (workload, name), a_values in sorted(a.items()):
        if (workload, name) not in b or name not in table:
            continue
        better, bound, absolute = table[name]
        a_median = statistics.median(a_values)
        b_median = statistics.median(b[(workload, name)])
        noise = max(a_values) - min(a_values) if absolute else spread(a_values)
        change = worse_by(better, absolute, a_median, b_median)
        if noise > bound:
            verdict = "unresolved (A's own runs differ by more than the bound)"
        elif change > bound:
            verdict = "REGRESSED"
            regressed += 1
        elif change < -bound:
            verdict = "better (claim it with --paired)"
        else:
            verdict = "within bound"
        ratio = b_median / a_median if a_median else float("nan")
        print(f"{workload:20} {name:22} {a_median:12.4f} {b_median:12.4f} "
              f"{ratio:7.3f} {bound:6.2f} {noise:8.3f}  {verdict}")
    return 1 if regressed else 0


def calibrate(paths: Sequence[str], write: bool) -> int:
    samples = load(paths)
    document = json.loads(BENCHMARK.read_text())
    observed: Dict[str, Dict[str, float]] = {}
    kept, demoted = [], []
    for metric in document["end_to_end"]:
        name = metric["name"]
        per_workload = {
            workload: spread(values)
            for (workload, metric_name), values in samples.items()
            if metric_name == name
        }
        if any(len(samples[(w, name)]) < 3 for w in per_workload) or not per_workload:
            print(f"{name}: fewer than 3 runs per workload; give more result files")
            return 2
        observed[name] = per_workload
        worst = max(per_workload.values())
        if worst > BOUND_CAP and name != "setup_s":
            demoted.append(name)
            document["per_layer"].append(
                {"name": name, "unit": metric["unit"], "better": metric["better"]}
            )
            print(f"{name}: spread {worst:.3f} > {BOUND_CAP}: demoted to per-layer")
            continue
        widened = min(BOUND_CAP, max(metric["bound"], round(1.5 * worst, 3)))
        note = "" if widened == metric["bound"] else f" (was {metric['bound']})"
        print(f"{name}: spread {worst:.3f} -> bound {widened}{note}")
        kept.append({**metric, "bound": widened})
    document["end_to_end"] = kept
    if write:
        BENCHMARK.write_text(json.dumps(document, indent=1) + "\n")
        CALIBRATION.write_text(
            json.dumps(
                {
                    "from": sorted(Path(path).name for path in paths),
                    "runs_per_workload": min(
                        len(values) for (_, name), values in samples.items() if name == "setup_s"
                    ),
                    "spread": observed,
                    "demoted": demoted,
                },
                indent=1,
            )
            + "\n"
        )
        print(f"wrote {BENCHMARK.name} and {CALIBRATION.name}")
    return 0


def run_pairs(parent: str, change: str, workload: str, pairs: int, out: str) -> int:
    if pairs < 10:
        print("a claim needs at least 10 pairs", file=sys.stderr)
        return 2
    document = {"workload": workload, "pairs": []}
    for seed in range(pairs):
        order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            checkout = parent if side == "parent" else change
            done = subprocess.run(
                [sys.executable, str(Path(checkout) / "benchmarks/e2e/run.py"),
                 "--workload", workload, "--seed", str(seed), "--record"],
                stdout=subprocess.PIPE, text=True, cwd=checkout,
            )
            pair[side] = json.loads(done.stdout.strip().splitlines()[-1])
        document["pairs"].append(pair)
        Path(out).write_text(json.dumps(document, indent=1) + "\n")
    return 0


def paired_verdict(
    parent: Sequence[float], change: Sequence[float], better: str
) -> Mapping[str, object]:
    """The paired rule on aligned samples (pair *i* = ``parent[i], change[i]``)."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    low, _, high = statistics.quantiles(parent, n=4)
    gap = sign * (statistics.median(parent) - statistics.median(change))
    enough = len(parent) >= 10
    return {
        "pairs": len(parent),
        "wins": wins,
        "ties": ties,
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_iqr": high - low,
        "gain": enough and wins >= 0.9 * len(parent) and gap > high - low,
    }


def paired(path: str) -> int:
    document = json.loads(Path(path).read_text())
    table = bounds()
    failed = {side: sum(p[side]["failed"] for p in document["pairs"]) for side in ("parent", "change")}
    print(f"{document['workload']}: failed operations parent {failed['parent']}, "
          f"change {failed['change']}" + ("  (a gain does not count)" if failed["change"] > failed["parent"] else ""))
    names = [n for n in document["pairs"][0]["parent"]["metrics"] if n in table]
    for name in names:
        verdict = paired_verdict(
            [p["parent"]["metrics"][name]["value"] for p in document["pairs"]],
            [p["change"]["metrics"][name]["value"] for p in document["pairs"]],
            table[name][0],
        )
        print(f"{name:22} parent {verdict['parent_median']:.4f} change {verdict['change_median']:.4f}"
              f" wins {verdict['wins']}/{verdict['pairs']} (ties {verdict['ties']})"
              f" parent IQR {verdict['parent_iqr']:.4f} -> {'GAIN' if verdict['gain'] else 'no claim'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("files", nargs="*")
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--write", action="store_true")
    parser.add_argument("--run-pairs", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out")
    parser.add_argument("--paired", metavar="PAIRS_JSON")
    args = parser.parse_args(argv)
    if args.run_pairs:
        if not (args.workload and args.out):
            parser.error("--run-pairs needs --workload and --out")
        return run_pairs(*args.run_pairs, args.workload, args.pairs, args.out)
    if args.paired:
        return paired(args.paired)
    if args.calibrate:
        return calibrate(args.files, args.write)
    if len(args.files) != 2:
        parser.error("give A.json B.json (or one of the modes)")
    return compare(args.files[:1], args.files[1:])


if __name__ == "__main__":
    raise SystemExit(main())
