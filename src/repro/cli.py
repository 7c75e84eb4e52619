"""Command-line interface: materialize, query and maintain views from rule files.

The CLI makes the library usable without writing Python: point it at a rule
file (the same syntax the parser accepts, see :mod:`repro.datalog.parser`)
and materialize, query, or apply updates.

Examples
--------
::

    python -m repro materialize rules.pl
    python -m repro query rules.pl b --universe 0:10
    python -m repro delete rules.pl "b(X) <- X = 6" --query b --universe 0:10
    python -m repro insert rules.pl "b(X) <- X = 1" --query c --universe 0:10
    python -m repro analyze rules.pl --strict
    python -m repro serve rules.pl --port 8737
    python -m repro stats --data-dir ./data      # durability summary
    python -m repro trace trace.jsonl --top 5    # batch waterfalls
    python -m repro examples          # list the bundled example scripts

External domains cannot be configured from the command line (they are Python
objects); the CLI therefore targets pure constrained databases, which is
also everything the paper's worked examples need.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis import analyze_program
from repro.constraints import ConstraintSolver
from repro.datalog import compute_tp_fixpoint, compute_wp_fixpoint, parse_constrained_atom, parse_program
from repro.errors import MaintenanceError, ReproError
from repro.maintenance import DeletionRequest, InsertionRequest
from repro.stream import StreamOptions, StreamScheduler


def parse_universe(spec: Optional[str]) -> Optional[List[object]]:
    """Parse ``--universe`` values: ``0:10`` (range) or ``a,b,c`` (list).

    It is the ``--universe`` argument type, so a malformed value is a usage
    error; the serve layer's request router reuses it for the wire-format
    ``"universe"`` field.
    """
    if spec is None:
        return None
    if ":" in spec:
        low_text, high_text = spec.split(":", 1)
        return list(range(int(low_text), int(high_text)))
    values: List[object] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            values.append(int(chunk))
        except ValueError:
            values.append(chunk)
    return values


def non_negative_int(text: str) -> int:
    """The ``--limit`` argument type: a count, so a negative one is a usage
    error."""
    value = int(text)
    if value < 0:
        raise ValueError(f"must not be negative: {value}")
    return value


def _load_program(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse_program(text)


def _print_view(view, stream) -> None:
    for entry in view:
        print(entry, file=stream)


def _print_instances(view, predicate: str, solver, universe, stream) -> None:
    try:
        tuples = sorted(view.instances_for(predicate, solver, universe), key=repr)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(2)
    for values in tuples:
        rendered = ", ".join(str(value) for value in values)
        print(f"{predicate}({rendered})", file=stream)
    print(f"-- {len(tuples)} instances", file=stream)


def _cmd_materialize(args, stream) -> int:
    program = _load_program(args.rules)
    solver = ConstraintSolver()
    compute = compute_wp_fixpoint if args.operator == "wp" else compute_tp_fixpoint
    view = compute(program, solver)
    _print_view(view, stream)
    print(f"-- {len(view)} entries ({args.operator})", file=stream)
    if args.query:
        _print_instances(view, args.query, solver, args.universe, stream)
    return 0


def _cmd_query(args, stream) -> int:
    program = _load_program(args.rules)
    solver = ConstraintSolver()
    view = compute_tp_fixpoint(program, solver)
    _print_instances(view, args.predicate, solver, args.universe, stream)
    return 0


def _cmd_update(args, stream, kind: str) -> int:
    program = _load_program(args.rules)
    solver = ConstraintSolver()
    scheduler = StreamScheduler(
        program, solver, options=StreamOptions(deletion_algorithm=args.algorithm)
    )
    atom = parse_constrained_atom(args.atom)
    request = DeletionRequest(atom) if kind == "delete" else InsertionRequest(atom)
    result = scheduler.apply_batch((request,))
    if not result.ok:
        raise MaintenanceError(
            f"update failed: {request} ({result.error})"
        )
    algorithm = args.algorithm if kind == "delete" else "insert"
    print(
        f"applied {kind} of {atom} using {algorithm}; "
        f"view now has {len(result.view)} entries",
        file=stream,
    )
    if args.verify:
        ok = scheduler.verify(args.universe)
        print(f"verification against declarative semantics: {'OK' if ok else 'MISMATCH'}",
              file=stream)
        if not ok:
            return 1
    if args.query:
        _print_instances(result.view, args.query, solver, args.universe, stream)
    return 0


def _cmd_analyze(args, stream) -> int:
    program = _load_program(args.rules)
    report = analyze_program(program)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True, default=str),
              file=stream)
    else:
        for diagnostic in report.diagnostics:
            print(diagnostic.render(), file=stream)
        print(f"-- {report.summary()}", file=stream)
    if report.errors():
        return 1
    if args.strict and report.warnings():
        return 1
    return 0


def _cmd_serve(args, stream) -> int:
    import asyncio

    # Imported lazily: the serve layer pulls in asyncio machinery no other
    # subcommand needs.
    from repro.serve import MediatorServer, MediatorService, ServeOptions

    from repro.obs import Observability

    program = _load_program(args.rules)
    stream_options = StreamOptions(deletion_algorithm=args.algorithm)
    # REPRO_OBS / REPRO_OBS_TRACE_PATH / REPRO_OBS_SLOW_BATCH_MS activate
    # the observability bundle; --trace-file forces file export on.
    if args.trace_file:
        obs = Observability.enabled_with(trace_path=args.trace_file)
    else:
        obs = Observability.from_env()
    if obs.enabled:
        where = (
            f", tracing to {obs.file_exporter.path}"
            if obs.file_exporter is not None
            else ""
        )
        print(f"observability enabled{where}", file=stream)
    if args.data_dir:
        # Durable serving: recover the newest snapshot + WAL tail from the
        # data directory, journal every committed batch, checkpoint on exit.
        from repro.persist import open_scheduler

        scheduler = open_scheduler(
            args.data_dir, program, options=stream_options, obs=obs
        )
        print(
            f"recovered {args.data_dir}: view has {len(scheduler.view)} "
            f"entries, watermark txn {scheduler.durability.watermark}",
            file=stream,
        )
    else:
        scheduler = StreamScheduler(
            program,
            ConstraintSolver(),
            options=stream_options,
            obs=obs,
        )

    async def run() -> int:
        service = MediatorService(scheduler, ServeOptions())
        await service.start()
        server = MediatorServer(service, host=args.host, port=args.port)
        host, port = await server.start()
        print(f"serving {args.rules} on {host}:{port}", file=stream)
        print(
            'protocol: one JSON object per line, e.g. '
            '{"op": "query", "predicate": "p"}',
            file=stream,
        )
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                await server.serve_forever()
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            await server.stop()
            await service.stop()
        stats = service.stats()
        print(
            f"-- served {stats['batches_applied']} batches, "
            f"view has {stats['view_entries']} entries",
            file=stream,
        )
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0
    finally:
        obs.close()


def _cmd_stats(args, stream) -> int:
    """Durability summary of a data directory, without starting a server."""
    from repro.persist.snapshot import SnapshotStore
    from repro.persist.wal import WriteAheadLog

    root = Path(args.data_dir)
    if not root.is_dir():
        print(f"error: {args.data_dir!r} is not a directory", file=sys.stderr)
        return 2
    store = SnapshotStore(root)
    wal = WriteAheadLog(root / "wal")
    segments = wal.segments()
    data = {
        "data_dir": str(root),
        "snapshot_id": store.current_name(),
        "wal_segments": len(segments),
        "wal_bytes": sum(path.stat().st_size for path in segments),
    }
    name = store.current_name()
    if name is not None:
        manifest_path = root / "snapshots" / name
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as error:
            print(f"error: manifest {name!r} unreadable: {error}", file=sys.stderr)
            return 2
        data["txn_watermark"] = manifest.get("txn_watermark")
        data["txn_high"] = manifest.get("txn_high")
        data["shards"] = len(manifest.get("shards", ()))
        data["format"] = manifest.get("format")
    print(json.dumps(data, indent=2, sort_keys=True), file=stream)
    return 0


def _cmd_trace(args, stream) -> int:
    """Render a JSON-lines trace file: waterfalls + slowest spans."""
    from repro.obs import (
        group_traces,
        read_events,
        render_top_spans,
        render_waterfall,
        verify_batch_traces,
    )

    try:
        events = read_events(args.file)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not events:
        print("no trace events found", file=stream)
        return 1
    views = group_traces(events)
    shown = views if args.limit is None else views[max(0, len(views) - args.limit):]
    for view in shown:
        print(render_waterfall(view), file=stream)
        print(file=stream)
    print(render_top_spans(events, k=args.top), file=stream)
    complete = [view for view in views if view.root is not None]
    print(
        f"-- {len(events)} events, {len(views)} traces "
        f"({len(complete)} complete)",
        file=stream,
    )
    if args.check:
        problems = verify_batch_traces(events, require_drain=False)
        for problem in problems:
            print(f"problem: {problem}", file=stream)
        return 1 if problems else 0
    return 0


def _cmd_examples(stream) -> int:
    examples_dir = Path(__file__).resolve().parent.parent.parent / "examples"
    print("Bundled examples (run with `python examples/<name>.py`):", file=stream)
    if examples_dir.is_dir():
        for script in sorted(examples_dir.glob("*.py")):
            print(f"  {script.name}", file=stream)
    else:  # installed without the examples directory
        for name in ("quickstart.py", "law_enforcement.py",
                     "constrained_database.py", "external_sources.py"):
            print(f"  {name}", file=stream)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Materialize and maintain constrained (mediated) views.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    materialize = subparsers.add_parser(
        "materialize", help="materialize a rule file and print the view entries"
    )
    materialize.add_argument("rules", help="path to a rule file")
    materialize.add_argument("--operator", choices=("tp", "wp"), default="tp")
    materialize.add_argument("--query", help="also print instances of this predicate")
    materialize.add_argument(
        "--universe", type=parse_universe, help="value universe, e.g. 0:20 or a,b,c"
    )

    query = subparsers.add_parser("query", help="print the instances of one predicate")
    query.add_argument("rules")
    query.add_argument("predicate")
    query.add_argument("--universe", type=parse_universe)

    for kind in ("delete", "insert"):
        update = subparsers.add_parser(
            kind, help=f"{kind} a constrained atom and report the maintained view"
        )
        update.add_argument("rules")
        update.add_argument("atom", help="e.g. \"b(X) <- X = 6\"")
        update.add_argument(
            "--algorithm", choices=("stdel", "dred"), default="stdel",
            help="deletion algorithm (ignored for insert)",
        )
        update.add_argument("--query", help="print instances of this predicate afterwards")
        update.add_argument("--universe", type=parse_universe)
        update.add_argument(
            "--verify", action="store_true",
            help="recompute the declarative semantics and compare",
        )

    analyze = subparsers.add_parser(
        "analyze",
        help="statically analyze a rule file (safety, stratification, "
        "signatures, write closures)",
    )
    analyze.add_argument("rules", help="path to a rule file")
    analyze.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on warnings too, not only errors",
    )
    analyze.add_argument(
        "--json", action="store_true",
        help="print the full report as JSON instead of rendered diagnostics",
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve a rule file over TCP (JSON lines): concurrent queries "
        "and update transactions against a maintained view",
    )
    serve.add_argument("rules", help="path to a rule file")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = pick a free one and print it)")
    serve.add_argument(
        "--algorithm", choices=("stdel", "dred"), default="stdel",
        help="deletion algorithm for the maintenance pipeline",
    )
    serve.add_argument(
        "--duration", type=float, default=None,
        help="serve for this many seconds then exit (default: forever)",
    )
    serve.add_argument(
        "--data-dir", default=None,
        help="durable data directory: recover the newest snapshot + WAL "
        "tail on start, journal updates, checkpoint on exit",
    )
    serve.add_argument(
        "--trace-file", default=None,
        help="enable observability and append batch-lifecycle trace events "
        "to this JSON-lines file (also honours REPRO_OBS/REPRO_OBS_TRACE_PATH)",
    )

    stats = subparsers.add_parser(
        "stats",
        help="print a durability summary (snapshot id, watermark, WAL "
        "segments/bytes) of a data directory without starting a server",
    )
    stats.add_argument("--data-dir", required=True,
                       help="data directory to inspect")

    trace = subparsers.add_parser(
        "trace",
        help="render a JSON-lines batch trace file: per-batch waterfalls "
        "and the top-k slowest spans",
    )
    trace.add_argument("file", help="trace file written by serve --trace-file")
    trace.add_argument("--top", type=int, default=10,
                       help="how many slowest spans to list (default 10)")
    trace.add_argument("--limit", type=non_negative_int, default=None,
                       help="render only the newest N traces")
    trace.add_argument(
        "--check", action="store_true",
        help="verify span-tree integrity and exit non-zero on problems",
    )

    subparsers.add_parser("examples", help="list the bundled example scripts")
    return parser


def main(argv: Optional[Sequence[str]] = None, stream=None) -> int:
    """CLI entry point; returns the process exit code."""
    stream = stream or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "materialize":
            return _cmd_materialize(args, stream)
        if args.command == "query":
            return _cmd_query(args, stream)
        if args.command == "delete":
            return _cmd_update(args, stream, "delete")
        if args.command == "insert":
            return _cmd_update(args, stream, "insert")
        if args.command == "analyze":
            return _cmd_analyze(args, stream)
        if args.command == "serve":
            return _cmd_serve(args, stream)
        if args.command == "stats":
            return _cmd_stats(args, stream)
        if args.command == "trace":
            return _cmd_trace(args, stream)
        if args.command == "examples":
            return _cmd_examples(stream)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
