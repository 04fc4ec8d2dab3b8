"""Kill-9-under-load soak for the durability tier (DESIGN.md §14).

Runs a real ``serve`` subprocess with the event log enabled, drives it
over TCP with a durable subscriber plus bursty publishers, ``SIGKILL``s
the server mid-load (no drain, no atexit — the only surviving state is
what the write-ahead event log fsynced), restarts it on the same port
and directory, and lets the reconnecting client splice its stream back
together via ``resume``.  After the run the log directory itself is the
oracle: replaying every record into a fresh engine regenerates the
notification stream an uninterrupted server would have produced, and
the client's received stream must match it exactly.

Checked invariants:

* **zero accepted-op loss** — every publish the server acked (the ack
  carries the event-log offset) is present in the log at that offset
  with the same term set;
* **no duplicate delivery** — the client never sees the same
  ``(offset, query_id)`` twice, across any number of kills/resumes;
* **offset monotonicity** — pushed offsets are non-decreasing;
* **oracle equivalence** — the client's full notification stream equals
  the offline replay of the log, element for element;
* **clean DLQ** — a soak without slow consumers must not dead-letter.

This spawns real processes, so it is not part of
:func:`~repro.simulation.harness.run_default_suite`; the CLI exposes it
via ``simulate --scenario kill9-load``.
"""

from __future__ import annotations

import asyncio
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Tuple

import repro
from repro.core.engine import DasEngine
from repro.core.query import DasQuery
from repro.eventlog import EventLog, read_dlq
from repro.server.protocol import document_from_payload
from repro.server.tcp import NdjsonTcpClient

#: Method/k the serve subprocess runs; the offline oracle must rebuild
#: the same engine config or the differential is void.
_METHOD = "GIFilter"
_K = 4

#: The serve command's ready line (``_serve`` in experiments.cli).
_READY_RE = re.compile(r"serving \S+ \(k=\d+\) on ([\d.]+):(\d+)")

#: Durable subscriber identity the soak client resumes as.
_SUBSCRIBER = "soak"

#: Term no load document ever contains; the quiescence barrier.
_SENTINEL_TERM = "zzz-sentinel"


def _serve_env() -> dict:
    """Child env with ``src`` on PYTHONPATH regardless of install mode."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src if not existing else src + os.pathsep + existing
    )
    return env


class ServeProcess:
    """One ``serve`` subprocess with the event log enabled.

    ``start`` blocks until the ready line is parsed; after a
    :meth:`kill` the process can be started again — on the *same* port
    and log directory — which is exactly the crash/recover cycle the
    soak exercises.
    """

    def __init__(
        self,
        directory: str,
        host: str = "127.0.0.1",
        outbox_capacity: int = 8192,
        throttle_rate: float = 0.0,
    ) -> None:
        self._directory = directory
        self._host = host
        self._outbox_capacity = outbox_capacity
        self._throttle_rate = throttle_rate
        self.process: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None

    def _cmd(self, port: int) -> List[str]:
        cmd = [
            sys.executable,
            "-m",
            "repro.experiments.cli",
            "serve",
            "--host",
            self._host,
            "--port",
            str(port),
            "--method",
            _METHOD,
            "--k",
            str(_K),
            "--eventlog-dir",
            self._directory,
            "--eventlog-fsync",
            "always",
            "--eventlog-checkpoint-every",
            "0",
            "--outbox-capacity",
            str(self._outbox_capacity),
        ]
        if self._throttle_rate > 0.0:
            cmd += ["--throttle-rate", str(self._throttle_rate)]
        return cmd

    def start(self) -> Tuple[str, int]:
        """Spawn the server and block until it prints its ready line."""
        port = self.address[1] if self.address is not None else 0
        self.process = subprocess.Popen(
            self._cmd(port),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=_serve_env(),
            text=True,
        )
        while True:
            line = self.process.stdout.readline()
            if not line:
                self.process.wait()
                raise RuntimeError(
                    "serve subprocess exited before its ready line "
                    f"(code {self.process.returncode})"
                )
            match = _READY_RE.search(line)
            if match is not None:
                self.address = (match.group(1), int(match.group(2)))
                return self.address

    def kill(self) -> None:
        """SIGKILL — no drain, no flush, no goodbye."""
        if self.process is not None and self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
            self.process.wait()

    def stop(self) -> None:
        """Graceful-enough teardown at the end of a scenario."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def _oracle_stream(
    directory: str,
) -> Tuple[List[Tuple[int, int, int]], int]:
    """Replay the log offline; the stream an uninterrupted run produces.

    Returns ordered ``(offset, query_id, doc_id)`` triples for every
    notification owed to the durable subscriber, plus the log end.
    Ack records are ignored on purpose: they shape *retention*, not the
    notification stream itself.
    """
    log = EventLog(directory, fsync="never")
    try:
        engine = DasEngine.for_method(_METHOD, k=_K)
        owned: set = set()
        stream: List[Tuple[int, int, int]] = []
        for offset, record in log.entries_since(0):
            kind = record["kind"]
            if kind == "subscribe":
                engine.subscribe(
                    DasQuery(record["query_id"], record["terms"])
                )
                if record.get("subscriber") == _SUBSCRIBER:
                    owned.add(record["query_id"])
            elif kind == "unsubscribe":
                engine.unsubscribe(record["query_id"])
                owned.discard(record["query_id"])
            elif kind == "publish":
                document = document_from_payload(record["doc"])
                for note in engine.publish_batch([document]):
                    if note.query_id in owned:
                        stream.append(
                            (offset, note.query_id, note.document.doc_id)
                        )
        return stream, log.end
    finally:
        log.close()


async def _drive_soak(
    server: ServeProcess,
    seed: int,
    ops: int,
    kill_bursts: List[int],
    events: List[str],
) -> Dict[str, Any]:
    """The async client side: load, kills, restarts, resume, drain."""
    rng = random.Random(seed * 6151 + ops)
    host, port = server.address
    loop = asyncio.get_running_loop()
    client = await NdjsonTcpClient.connect(
        host,
        port,
        reconnect=True,
        backoff_base=0.05,
        backoff_max=0.5,
        max_retries=30,
        jitter_seed=seed,
    )
    received: List[Dict[str, Any]] = []
    snapshots = 0

    async def collect() -> None:
        nonlocal snapshots
        while True:
            message = await client.next_message()
            if message is None:
                return
            if message.get("op") == "notify":
                received.append(message)
            elif message.get("op") == "snapshot":
                snapshots += 1

    collector = asyncio.create_task(collect())
    accepted: Dict[int, List[str]] = {}
    rejected = 0

    try:
        await client.resume(_SUBSCRIBER, -1)
        # A handful of overlapping two-term queries over the load vocab,
        # plus the sentinel query used as the quiescence barrier.
        for j in range(6):
            await client.subscribe([f"t{j}", f"t{j + 2}"])
        sentinel = await client.subscribe([_SENTINEL_TERM])

        async def one_publish(index: int, tokens: List[str]) -> None:
            nonlocal rejected
            try:
                ack = await client.publish(
                    tokens=tokens, created_at=float(index)
                )
            except ConnectionError:
                # In flight when the server died; the log decides
                # whether it was accepted (at-least-once, never lost).
                rejected += 1
            else:
                accepted[ack["offset"]] = tokens

        index = 0
        burst_index = 0
        while index < ops:
            burst = []
            for _ in range(rng.randint(1, 4)):
                if index >= ops:
                    break
                tokens = [
                    f"t{rng.randrange(12)}"
                    for _ in range(rng.randint(3, 7))
                ]
                burst.append(
                    asyncio.ensure_future(one_publish(index, tokens))
                )
                index += 1
            if burst_index in kill_bursts:
                # Kill while the burst is in flight: some lines are in
                # the log, some died on the wire — the matrix the log
                # must sort out.  Restart *before* gathering: publishes
                # whose write failed locally park on the reconnect gate
                # and only settle once the server is back.
                server.kill()
                events.append(f"SIGKILL @burst {burst_index}")
                await asyncio.sleep(0.1)
                await loop.run_in_executor(None, server.start)
                events.append(f"restart @burst {burst_index}")
                await asyncio.gather(*burst)
            else:
                await asyncio.gather(*burst)
            burst_index += 1

        # Quiescence barrier: a sentinel publish that *must* notify the
        # sentinel query; once its offset shows up everything before it
        # has been delivered (per-subscriber delivery is ordered).
        barrier = await client.publish(
            tokens=[_SENTINEL_TERM], created_at=float(ops)
        )
        deadline = loop.time() + 60.0
        while loop.time() < deadline:
            if any(
                note["query_id"] == sentinel["query_id"]
                and note.get("offset") == barrier["offset"]
                for note in received
            ):
                break
            await asyncio.sleep(0.05)
        else:
            events.append("sentinel delivery timed out")

        stats = await client.stats()
        connection = client.connection_stats()
    finally:
        await client.close()
        collector.cancel()
        try:
            await collector
        except (asyncio.CancelledError, Exception):
            pass

    return {
        "accepted": accepted,
        "rejected": rejected,
        "received": received,
        "snapshots": snapshots,
        "stats": stats,
        "connection": connection,
        "sentinel_query": sentinel["query_id"],
        "sentinel_offset": barrier["offset"],
    }


def run_kill9_suite(
    seed: int = 0,
    ops: int = 120,
    kills: int = 2,
    directory: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the kill-9-under-load soak; deterministic report for the args.

    ``kills`` SIGKILL/restart cycles are spread across the burst
    schedule.  The wall-clock duration scales with ``ops`` (the CI soak
    passes a few hundred); the verdict is a pure function of the log
    contents, not of timing.
    """
    mismatches: List[str] = []
    events: List[str] = []

    def check(label: str, ok: bool) -> None:
        if not ok:
            mismatches.append(label)

    tmp = None
    if directory is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-kill9-")
        directory = tmp.name
    server = ServeProcess(directory)
    try:
        server.start()
        burst_estimate = max(2, ops // 2)  # mean burst size is ~2.5
        kill_bursts = [
            max(1, (i + 1) * burst_estimate // (kills + 1))
            for i in range(max(0, kills))
        ]
        outcome = asyncio.run(
            _drive_soak(server, seed, ops, kill_bursts, events)
        )
        server.stop()

        accepted: Dict[int, List[str]] = outcome["accepted"]
        received: List[Dict[str, Any]] = outcome["received"]
        oracle, log_end = _oracle_stream(directory)
        log = EventLog(directory, fsync="never")
        try:
            logged_terms = {
                offset: set(record["doc"]["tf"])
                for offset, record in log.entries_since(0)
                if offset in accepted and record["kind"] == "publish"
            }
        finally:
            log.close()

        # Zero accepted-op loss: every acked publish survived the kills.
        for offset, tokens in sorted(accepted.items()):
            terms = logged_terms.get(offset)
            if terms is None:
                check(f"accepted offset {offset} missing from log", False)
            else:
                check(
                    f"accepted offset {offset} term set",
                    terms == set(tokens),
                )

        # No duplicate delivery, offsets non-decreasing, stream == oracle.
        stream = [
            (note["offset"], note["query_id"], note["document"]["doc_id"])
            for note in received
        ]
        check(
            "no duplicate (offset, query_id) delivery",
            len({(o, q) for o, q, _ in stream}) == len(stream),
        )
        check(
            "pushed offsets non-decreasing",
            all(
                stream[i][0] <= stream[i + 1][0]
                for i in range(len(stream) - 1)
            ),
        )
        check("received stream equals offline replay", stream == oracle)
        check("sentinel delivered", "sentinel delivery timed out" not in events)

        connection = outcome["connection"]
        check(
            f"expected {kills} reconnects",
            connection["reconnects"] >= kills,
        )
        check(
            "every reconnect resumed",
            connection["resumed"] >= 1 + kills,
        )
        check("no lossy resubscription", connection["resubscribed"] == 0)

        dlq = read_dlq(directory)
        check("DLQ stayed empty", len(dlq) == 0)
        eventlog_stats = outcome["stats"].get("eventlog") or {}
        check(
            "server saw a non-empty recovery",
            kills == 0
            or (eventlog_stats.get("recovery") or {}).get("replayed", 0) > 0,
        )
        report_stats = {
            "accepted": len(accepted),
            "rejected": outcome["rejected"],
            "received": len(stream),
            "oracle": len(oracle),
            "snapshots": outcome["snapshots"],
            "log_end": log_end,
            "reconnects": connection["reconnects"],
            "resumed": connection["resumed"],
            "dlq_entries": len(dlq),
            "recovery": eventlog_stats.get("recovery"),
        }
    finally:
        server.stop()
        if tmp is not None:
            tmp.cleanup()

    return {
        "suite": "kill9_load",
        "seed": seed,
        "ops": ops,
        "kills": kills,
        "events": events,
        "counts": report_stats,
        "mismatches": mismatches,
        "ok": not mismatches,
    }
