"""The client side of ``serve-durable``: spawn the server, load it, kill it.

Two clients, one TCP connection each, nothing else:

* the **writer** is a *closed loop* -- it sends its next request only when
  the previous reply is in (an update producer that waits for its ``flush``);
* the **reader** is an *open loop* -- one query every ``1 / rate`` seconds
  whether or not the last one has been answered, each timed from the moment
  it was **due**, so a stall charges every query it delays.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import gen
from scenarios import (
    Budget,
    Meter,
    Outcome,
    _record,
    layered_model,
    layered_spec,
    to_wire,
)
from tracing import percentile

_perf = time.perf_counter
SERVER_MAIN = Path(__file__).resolve().parent / "server_main.py"


@dataclass(frozen=True)
class ServeConfig:
    tenants: int = 4
    base_facts: int = 150
    #: Reader rate (queries per second, open loop).
    query_rate: float = 20.0
    #: Shares of the time box: phase A (trickle) and phase B (bursts).
    trickle_share: float = 0.6
    burst_share: float = 0.4
    fixed_trickle_pairs: int = 12
    fixed_bursts: int = 2
    setup_repeats: int = 3
    spawn_timeout_s: float = 60.0


SERVE_QUICK = ServeConfig(
    tenants=2, base_facts=24, fixed_trickle_pairs=2, fixed_bursts=1, setup_repeats=1
)


class ServerProcess:
    """One life of the server subprocess; always reaped on exit."""

    def __init__(self, data_dir: Path, config: ServeConfig, trace: bool) -> None:
        self.data_dir = data_dir
        self.dump_path = data_dir.parent / (data_dir.name + ".dump.json")
        self._config = config
        self._trace = trace
        self._process: Optional[subprocess.Popen] = None
        self.address: Tuple[str, int] = ("", 0)
        self.ready: Dict[str, object] = {}

    def start(self, while_waiting=None) -> "ServerProcess":
        """Spawn and wait for the serving line; *while_waiting* is called
        over and over until it arrives (the meter reads its yardstick)."""
        config = self._config
        self._process = subprocess.Popen(
            [
                sys.executable, str(SERVER_MAIN),
                "--data-dir", str(self.data_dir),
                "--dump", str(self.dump_path),
                "--tenants", str(config.tenants),
                "--base-facts", str(config.base_facts),
                "--trace", str(int(self._trace)),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        deadline = _perf() + config.spawn_timeout_s
        ready: list = []
        while not ready and _perf() < deadline:
            ready, _, _ = select.select([self._process.stdout], [], [], 0.05)
            if while_waiting is not None:
                while_waiting()
        line = self._process.stdout.readline() if ready else b""
        if not line:
            self.kill()
            raise RuntimeError("server did not print its serving line in time")
        self.ready = json.loads(line)
        host, port = self.ready["serving"]
        self.address = (host, int(port))
        return self

    def dump(self, timeout_s: float = 30.0) -> dict:
        """Ask (SIGUSR1) for the server's counters and wait for the file."""
        assert self._process is not None
        if self.dump_path.exists():
            self.dump_path.unlink()
        os.kill(self._process.pid, signal.SIGUSR1)
        deadline = _perf() + timeout_s
        while not self.dump_path.exists():
            if _perf() > deadline or self._process.poll() is not None:
                raise RuntimeError("server did not write its dump")
            time.sleep(0.01)
        return json.loads(self.dump_path.read_text())

    def kill(self) -> None:
        """SIGKILL (a crash, not a shutdown) and reap."""
        process, self._process = self._process, None
        if process is None:
            return
        process.kill()
        process.wait()
        for stream in (process.stdin, process.stdout):
            if stream is not None:
                stream.close()


class Connection:
    """One JSON-lines TCP connection."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self._socket = socket.create_connection(address, timeout=60.0)
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._socket.makefile("rwb")

    def request(self, message: dict) -> dict:
        self._file.write(json.dumps(message).encode("utf-8") + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            return {"ok": False, "error": "connection closed"}
        return json.loads(line)

    def close(self) -> None:
        self._file.close()
        self._socket.close()


class Reader(threading.Thread):
    """The open-loop query client."""

    def __init__(self, address: Tuple[str, int], predicates: List[str], rate: float) -> None:
        super().__init__(name="reader", daemon=True)
        self._address = address
        self._predicates = predicates
        self._interval = 1.0 / rate
        self._stop_event = threading.Event()
        #: ``(due, sent, answered, ok)`` per query, perf_counter seconds.
        self.samples: List[Tuple[float, float, float, bool]] = []
        self.error: Optional[str] = None

    def run(self) -> None:
        try:
            connection = Connection(self._address)
        except OSError as error:
            self.error = f"reader could not connect: {error}"
            return
        try:
            start = _perf()
            number = 0
            while not self._stop_event.is_set():
                due = start + number * self._interval
                wait = due - _perf()
                if wait > 0 and self._stop_event.wait(wait):
                    break
                sent = _perf()
                reply = connection.request(
                    {"op": "query", "predicate": self._predicates[number % len(self._predicates)]}
                )
                self.samples.append((due, sent, _perf(), bool(reply.get("ok"))))
                number += 1
        except (OSError, ValueError) as error:
            self.error = f"reader failed: {error}"
        finally:
            connection.close()

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=90.0)
        if self.is_alive():
            self.error = "reader did not stop"


class _SpeedLog(Meter):
    """A meter that remembers when it saw which slowdown, so the reader's
    samples (taken on another thread) can be scaled by the nearest one."""

    def __init__(self) -> None:
        super().__init__()
        self.times: List[float] = []
        self.slowdowns: List[float] = []

    def time(self, label, fn, *args, collect=False):
        timed = super().time(label, fn, *args, collect=collect)
        self.times.append(_perf())
        self.slowdowns.append(self.last_slowdown)
        return timed

    def slowdown_at(self, moment: float) -> float:
        if not self.times:
            return 1.0
        index = min(bisect.bisect_left(self.times, moment), len(self.times) - 1)
        return self.slowdowns[index]


#: Requests of the untimed batch that pushes the WAL over the checkpoint
#: threshold (insert-then-delete pairs: the coalescer cancels them all, so
#: they cost a parse and a WAL record each, and no maintenance).
SETTLE_REQUESTS = 40
#: Single-update batches journaled after that checkpoint: the WAL tail the
#: restarted server replays.
TAIL_UPDATES = 3
#: The server's peak RSS is read after this many phase-A pairs: it grows
#: with every batch applied (the service keeps each batch's result), so a
#: peak over a time-boxed run would measure the machine's speed.
RSS_AFTER_PAIRS = 8


def run_serve(
    config: ServeConfig, seed: int, budget: Budget, trace: bool, scratch: Path
) -> Outcome:
    outcome = Outcome()
    tenants, base_facts = config.tenants, config.base_facts
    spec = layered_spec(base_facts)
    top_predicates = [
        gen.tenant_prefix(tenant) + spec.top_predicates[0] for tenant in range(tenants)
    ]
    meter = _SpeedLog()
    applied: List[gen.Op] = []
    server: Optional[ServerProcess] = None
    reader: Optional[Reader] = None
    writer: Optional[Connection] = None
    try:
        # -- set-up: process spawn -> serving line, on an empty data dir ---
        for repeat in range(config.setup_repeats):
            if server is not None:
                server.kill()
            server = ServerProcess(scratch / f"data{repeat}", config, trace)
            _, seconds = meter.time("setup", server.start, meter.read)
            outcome.setup_s.append(seconds)
        assert server is not None
        outcome.view_entries = int(server.ready["entries"])

        writer = Connection(server.address)
        reader = Reader(server.address, top_predicates, config.query_rate)
        reader.start()

        def send(ops: List[gen.Op]) -> int:
            """Submit *ops*, then ``flush``; returns how many requests failed."""
            applied.extend(ops)
            outcome.attempted += len(ops)
            failures = sum(not writer.request(to_wire(op)).get("ok") for op in ops)
            return failures + (not writer.request({"op": "flush"}).get("ok"))

        # -- phase A: trickle -------------------------------------------
        trickle = gen.serve_trickle(base_facts, tenants, seed)
        trickle_times: List[Tuple[float, float]] = []
        for pair in budget.rounds(
            config.trickle_share, config.fixed_trickle_pairs, len(trickle) // 2
        ):
            for op in trickle[2 * pair : 2 * pair + 2]:
                started = _perf()
                failures, seconds = meter.time("update", send, [op])
                trickle_times.append((started, _perf()))
                outcome.failed += failures
                _record(outcome, op[0], seconds, 1)
                # The producer reads its own write back: a query on a server
                # that has just gone idle, as in the in-process workloads.
                predicate = op[1].replace(gen.UPDATED_BASE, spec.top_predicates[0])
                reply, seconds = meter.time(
                    "query", writer.request, {"op": "query", "predicate": predicate}
                )
                outcome.attempted += 1
                outcome.failed += reply.get("count") != base_facts - (op[0] == "delete")
                outcome.query_ms.append(seconds * 1000.0)
            if pair + 1 == RSS_AFTER_PAIRS:
                outcome.peak_rss_mb = float(server.dump()["peak_rss_mb"])
        phase_b = _perf()

        # -- phase B: bursts --------------------------------------------
        outcome.failed += send(gen.burst_deletions(base_facts, tenants, seed, 0))
        burst_requests, burst_s = 0, 0.0
        for burst in budget.rounds(
            config.burst_share, config.fixed_bursts, gen.burst_capacity(base_facts, tenants)
        ):
            ops = gen.serve_burst(base_facts, tenants, seed, burst + 1)
            failures, seconds = meter.time("burst", send, ops)
            outcome.failed += failures
            outcome.throughput_requests += len(ops)
            outcome.throughput_s += seconds
            burst_requests += len(ops)
            burst_s += seconds
        reader.stop()

        # -- what only the server can see --------------------------------
        outcome.server = server.dump()
        outcome.batches = outcome.server["batches"]
        if not outcome.peak_rss_mb:
            outcome.peak_rss_mb = float(outcome.server["peak_rss_mb"])

        # -- a known WAL tail, then the crash ------------------------------
        # Force a checkpoint, then journal exactly TAIL_UPDATES batches, so
        # that every recovery loads one snapshot and replays the same tail.
        fresh = [(20 * base_facts + index,) for index in range(SETTLE_REQUESTS // 2)]
        settle = [
            (kind, gen.tenant_prefix(0) + gen.UPDATED_BASE, value)
            for value in fresh
            for kind in ("insert", "delete")
        ]
        outcome.failed += send(settle)
        for op in gen.tail_deletions(base_facts, tenants, seed, TAIL_UPDATES):
            outcome.failed += send([op])
        data_dir = server.data_dir
        server.kill()
        writer.close()
        writer = None

        # -- restart on the used directory, read everything back ----------
        server = ServerProcess(data_dir, config, trace)
        _, recover_s = meter.time("recover", server.start, meter.read)
        outcome.detail["recover_s"] = recover_s
        outcome.detail["replayed_batches"] = float(server.ready["replayed_batches"])
        writer = Connection(server.address)
        answers: Dict[str, frozenset] = {}
        for tenant in range(tenants):
            for name in list(spec.base_predicates) + list(spec.top_predicates):
                predicate = gen.tenant_prefix(tenant) + name
                reply = writer.request({"op": "query", "predicate": predicate})
                outcome.attempted += 1
                outcome.failed += not reply.get("ok")
                answers[predicate] = frozenset(tuple(row) for row in reply.get("instances", ()))
        if trace:
            outcome.server["recovery"] = server.dump()
    finally:
        if reader is not None and reader.is_alive():
            reader.stop()
        if writer is not None:
            writer.close()
        if server is not None:
            server.kill()

    # -- reader samples ---------------------------------------------------
    outcome.attempted += len(reader.samples)
    outcome.failed += sum(not ok for _, _, _, ok in reader.samples)
    outcome.failed += reader.error is not None
    latencies = [
        (due, (answered - due) * 1000.0 / meter.slowdown_at(answered))
        for due, _, answered, _ in reader.samples
    ]
    # Reads beside writes.  Their distribution has three modes -- the server
    # idle (3 ms), a maintenance pass holding the interpreter lock (9 ms), a
    # checkpoint or collection stalling everything (20-200 ms) -- whose
    # shares move with the machine, and the median with them (spread 20 %
    # on a busy day).  They are reported, per phase, but not bounded; the
    # bounded ``query_ms_p50`` is the writer's own read-back above.
    for name, chosen in (
        ("reader_query_ms_p50", [ms for due, ms in latencies if due < phase_b]),
        ("burst_query_ms_p50", [ms for due, ms in latencies if due >= phase_b]),
    ):
        outcome.detail[name] = statistics.median(chosen) if chosen else 0.0
    outcome.detail["burst_updates_per_s"] = burst_requests / burst_s
    late = [(sent - due) * 1000.0 for due, sent, _, _ in reader.samples]
    outcome.detail["client_late_ms_p90"] = _tail(late, 90)
    outcome.detail["update_ms_p90"] = _tail(outcome.delete_ms + outcome.insert_ms, 90)
    outcome.detail["query_ms_p90"] = _tail([ms for _, ms in latencies], 90)
    outcome.detail["query_samples"] = float(len(reader.samples))
    counters = outcome.server["counters"]
    outcome.detail["disk_bytes_per_update"] = (
        counters["wal_bytes"] + counters["checkpoint_bytes"]
    ) / (len(outcome.delete_ms) + len(outcome.insert_ms) + 12 + burst_requests)
    # Largest phase-A update that overlapped a checkpoint (traced runs only:
    # the checkpoint spans come from the server's tracer).
    checkpoints = [
        (row[3], row[4]) for row in outcome.server.get("spans", ()) if row[2] == "persist.checkpoint"
    ]
    stalls = [
        (end - start) * 1000.0
        for start, end in trickle_times
        if any(c_start < end and c_end > start for c_start, c_end in checkpoints)
    ]
    outcome.detail["update_stall_ms_max"] = max(stalls, default=0.0)
    outcome.slowdown = meter.slowdown
    outcome.measured_raw_s = meter.raw_s
    outcome.measured_s = meter.scaled_s
    outcome.intern = outcome.server["intern"]
    if trace:
        # The wrappers run in the server: its whole life is "the pass".
        outcome.calls = outcome.op_calls = {
            name: tuple(value) for name, value in outcome.server["calls"].items()
        }

    def run_checks() -> None:
        expected: Dict[str, frozenset] = {}
        for tenant in range(tenants):
            expected.update(layered_model(base_facts, gen.tenant_prefix(tenant), applied))
        outcome.checks["acknowledged_updates_survive_crash"] = bool(answers) and all(
            answers[predicate] == expected[predicate] for predicate in answers
        )
        outcome.checks["wal_tail_was_replayed"] = (
            outcome.detail["replayed_batches"] >= TAIL_UPDATES
        )
        outcome.checks["reader_clean"] = reader.error is None
        outcome.checks["no_batch_errors"] = (
            outcome.server["service"]["batch_errors"] == 0
            and outcome.server["service"]["failed_units"] == 0
        )

    outcome.run_checks = run_checks
    return outcome


def _tail(samples: List[float], q: float) -> float:
    """A tail percentile, or 0.0 when too few samples lie beyond it."""
    try:
        return percentile(samples, q)
    except ValueError:
        return 0.0
