"""The server subprocess of the ``serve-durable`` workload.

``open_scheduler`` over a data directory -> ``MediatorService`` ->
``MediatorServer`` on port 0, exactly as an operator would wire them, with
the shipped flush policy (one fsync per drained batch).  When ready it
prints one JSON line ``{"serving": [host, port], ...}`` and serves until it
is killed or its stdin reaches end-of-file (so it cannot outlive the
benchmark that spawned it).

On ``SIGUSR1`` it writes what only it can see to ``--dump``: the bytes that
went to disk, the program's own stats objects, its peak RSS and -- with
``--trace 1`` -- the timing wrappers' totals and spans.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import resource
import signal
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

#: Checkpoint after this many live WAL bytes: several checkpoint cycles
#: complete inside one run.
CHECKPOINT_WAL_BYTES = 8192


def count_disk_bytes(counters: dict) -> None:
    """Count bytes at the ``WriteAheadLog.append`` /
    ``SnapshotStore.write_checkpoint`` call boundary, traced or not."""
    from repro.persist import codec
    from repro.persist.snapshot import SnapshotStore
    from repro.persist.wal import WriteAheadLog

    append = WriteAheadLog.append
    write_checkpoint = SnapshotStore.write_checkpoint

    def counting_append(self, transactions):
        if transactions:
            # One record is "<crc32 hex> <canonical JSON>\n" (persist/wal.py).
            body = codec.canonical_bytes(codec.encode_transactions(transactions))
            counters["wal_bytes"] += len(body) + 10
            counters["wal_appends"] += 1
        return append(self, transactions)

    def counting_checkpoint(self, *args, **kwargs):
        info = write_checkpoint(self, *args, **kwargs)
        counters["checkpoint_bytes"] += info.bytes_written
        counters["checkpoints"] += 1
        return info

    WriteAheadLog.append = counting_append
    SnapshotStore.write_checkpoint = counting_checkpoint


async def serve(args, tracer, counters) -> None:
    from repro.constraints.intern import intern_stats
    from repro.persist import DurabilityOptions, open_scheduler
    from repro.serve import MediatorServer, MediatorService, ServeOptions
    from scenarios import batch_row, tenant_program

    scheduler = open_scheduler(
        args.data_dir,
        tenant_program(args.tenants, args.base_facts),
        durability_options=DurabilityOptions(checkpoint_wal_bytes=CHECKPOINT_WAL_BYTES),
    )
    service = MediatorService(scheduler, ServeOptions())
    server = MediatorServer(service, port=0)

    def dump() -> None:
        state = {
            "counters": dict(counters),
            "durability": dataclasses.asdict(scheduler.durability.stats),
            "service": service.stats(),
            "batches": [batch_row(stats) for stats in scheduler.batches],
            "replayed_batches": getattr(scheduler, "_replayed_batches", 0),
            "intern": intern_stats(),
            "view_entries": len(scheduler.view),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if tracer is not None:
            state["calls"] = tracer.calls()
            state["spans"] = [span.as_row() for span in tracer.spans]
        partial = args.dump + ".partial"
        with open(partial, "w") as handle:
            json.dump(state, handle, default=str)
        os.replace(partial, args.dump)

    asyncio.get_running_loop().add_signal_handler(signal.SIGUSR1, dump)
    async with service:
        host, port = await server.start()
        print(
            json.dumps(
                {
                    "serving": [host, port],
                    "entries": len(scheduler.view),
                    "replayed_batches": getattr(scheduler, "_replayed_batches", 0),
                }
            ),
            flush=True,
        )
        await server.serve_forever()


def exit_with_parent() -> None:
    """Leave as soon as stdin closes: the benchmark holds the other end."""

    def watch() -> None:
        sys.stdin.buffer.read()
        os._exit(0)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--dump", required=True)
    parser.add_argument("--tenants", type=int, required=True)
    parser.add_argument("--base-facts", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    exit_with_parent()
    counters = {"wal_bytes": 0, "wal_appends": 0, "checkpoint_bytes": 0, "checkpoints": 0}
    count_disk_bytes(counters)
    tracer = None
    if args.trace:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        layers.install(tracer)
    asyncio.run(serve(args, tracer, counters))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
