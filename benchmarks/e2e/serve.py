"""``serve_durable_2k``: a load generator against ``repro serve``.

One asyncio thread, two connections (publisher, durable subscriber
``bench``).  Set-up, then phase A (closed loop, ``IN_FLIGHT`` publishes
pipelined on the one connection: saturation throughput), phase B (open
loop at ``OPEN_RATE`` docs/s, each document timed from when it was *due*)
and phase C (SIGKILL, restart on the same event-log directory, time
until the pre-kill results are served again).

The server is a subprocess.  A traced run hosts the same runtime and TCP
server inside this process instead, so the span wrappers can sit on it;
end-to-end numbers are never taken from that run.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from collections import deque
from typing import Dict, List, Optional

from repro.core.engine import DasEngine
from repro.eventlog import recover
from repro.experiments.cli import build_parser, build_serve_runtime
from repro.server import NdjsonTcpClient

import oracle
from common import (
    Change,
    RunRecord,
    SpeedGauge,
    latency_profile_ms,
    percentile,
    proc_status_kb,
    stream_digest,
)
from tracing import Tracer
from workloads import K, ROUNDS, Inputs, Workload

HOST = "127.0.0.1"
#: Publishes kept in flight on the publisher connection in phase A.
IN_FLIGHT = 32
#: Phase B's fixed rate, about a third of the seed commit's phase-A rate.
OPEN_RATE = 120.0
#: Share of the measured steps published in phase B.
OPEN_STEPS_SHARE = 0.42
#: A phase-B document slower than this missed the latency limit.
LATENCY_LIMIT_S = 0.25
#: Give up on a reply, and on phase B's backlog, after this long.
REPLY_TIMEOUT_S = 10.0
START_TIMEOUT_S = 60.0
BACKLOG_TIMEOUT_S = 2.0
#: A speed probe closes a block after this many sends / subscribes.
DOCS_PER_BLOCK = 20
#: The durable subscriber acks after this many notifications.
ACK_EVERY = 128
#: A generator busier than this is the bottleneck, not the server.
MAX_LOADGEN_CPU_SHARE = 0.8
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


class Server:
    """``repro serve --eventlog-dir`` as a subprocess or hosted in-loop."""

    def __init__(self, port: int, log_dir: str, hosted: bool = False) -> None:
        self.argv = [
            "serve", "--port", str(port), "--k", str(K), "--eventlog-dir", log_dir,
        ]
        self.hosted = hosted
        self.process: Optional[subprocess.Popen] = None
        self.runtime = None
        self.tcp = None

    async def start(self) -> None:
        if self.hosted:
            args = build_parser().parse_args(self.argv)
            self.runtime, self.tcp = build_serve_runtime(args)
            await self.runtime.start()
            await self.tcp.start()
            return
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")])
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", *self.argv],
            env=env,
            stdout=subprocess.PIPE,
        )
        # The CLI prints one "serving ..." line once the port is bound.
        line = await asyncio.wait_for(
            asyncio.get_running_loop().run_in_executor(
                None, self.process.stdout.readline
            ),
            START_TIMEOUT_S,
        )
        if not line:
            raise RuntimeError("server exited before binding its port")

    def exited(self) -> bool:
        return self.process is not None and self.process.poll() is not None

    def memory_kb(self, key: str) -> float:
        return proc_status_kb(self.process.pid if self.process else "self", key)

    async def kill(self) -> None:
        """SIGKILL (hosted: stop without draining) and reap."""
        if self.process is not None:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGKILL)
            self.process.wait()
            self.process.stdout.close()
            self.process = None
        if self.runtime is not None:
            await self.tcp.stop()
            await self.runtime.stop(drain=False)
            self.runtime = self.tcp = None


async def counted(record: RunRecord, call) -> Optional[dict]:
    """Await one request; a failure or timeout is a failed op, not a crash."""
    record.attempted += 1
    try:
        return await asyncio.wait_for(call, REPLY_TIMEOUT_S)
    except Exception as exc:
        record.failed += 1
        record.notes.setdefault("failures", []).append(repr(exc)[:200])
        return None


class LoadGenerator:
    def __init__(self, record: RunRecord) -> None:
        self.record = record
        self.publisher: Optional[NdjsonTcpClient] = None
        self.subscriber: Optional[NdjsonTcpClient] = None
        self.changes: List[Change] = []
        #: doc id -> when its first notify reached the subscriber.
        self.first_notify: Dict[int, float] = {}
        self.gauge = SpeedGauge()
        self._drain_task: Optional[asyncio.Task] = None

    async def connect(self, port: int) -> None:
        self.publisher = await NdjsonTcpClient.connect(HOST, port)
        self.subscriber = await NdjsonTcpClient.connect(HOST, port)
        await self.subscriber.resume("bench", -1)
        self._drain_task = asyncio.create_task(self._drain())

    async def close(self) -> None:
        if self._drain_task is not None:
            self._drain_task.cancel()
            await asyncio.gather(self._drain_task, return_exceptions=True)
        for client in (self.publisher, self.subscriber):
            if client is not None:
                await client.close()

    async def _drain(self) -> None:
        """Receive notifications; ack so the durable outbox stays short."""
        clock = time.perf_counter
        unacked = 0
        while True:
            message = await self.subscriber.next_message()
            if message is None:
                return
            if message.get("op") != "notify":
                continue
            doc_id = message["document"]["doc_id"]
            self.first_notify.setdefault(doc_id, clock())
            replaced = message["replaced"]
            self.changes.append(
                (doc_id, message["query_id"],
                 replaced["doc_id"] if replaced is not None else -1)
            )
            unacked += 1
            if unacked >= ACK_EVERY:
                unacked = 0
                await self.subscriber.ack()

    async def publish(self, doc) -> Optional[float]:
        """Publish one document; returns when its ack arrived."""
        ack = await counted(
            self.record,
            self.publisher.publish(
                tokens=doc.text.split(), created_at=doc.created_at
            ),
        )
        if ack is None:
            return None
        if ack["doc_id"] != doc.doc_id:
            self.record.errors.append(
                f"document {doc.doc_id} was accepted as {ack['doc_id']}"
            )
        return time.perf_counter()

    async def closed_loop(self, docs, in_flight: int = 1) -> None:
        """Publish ``docs`` in order, ``in_flight`` at a time; a speed
        probe closes a block every ``DOCS_PER_BLOCK`` sends."""
        pending: deque = deque()
        for index, doc in enumerate(docs):
            if len(pending) >= in_flight:
                await pending.popleft()
            pending.append(asyncio.ensure_future(self.publish(doc)))
            if (index + 1) % DOCS_PER_BLOCK == 0:
                self.gauge.close_block()
        while pending:
            await pending.popleft()

    async def received_everything(self, stats: dict) -> bool:
        """Wait until every notification the server enqueued has arrived."""
        session = next(
            s for s in stats["sessions"] if s["subscriber"] == "bench"
        )
        deadline = time.perf_counter() + BACKLOG_TIMEOUT_S
        while len(self.changes) < session["enqueued"]:
            if time.perf_counter() > deadline:
                return False
            await asyncio.sleep(0.005)
        return True


async def _drive(
    w: Workload, inputs: Inputs, out_dir: str, tracer: Optional[Tracer]
) -> RunRecord:
    record = RunRecord()
    metrics = record.metrics
    clock = time.perf_counter
    log_dir = tempfile.mkdtemp(prefix="eventlog-", dir=out_dir)
    port = free_port()
    gen = LoadGenerator(record)
    gauge = gen.gauge
    server = Server(port, log_dir, hosted=tracer is not None)
    try:
        # -- set-up: start, history, subscribes over the wire, settle ------
        await server.start()
        await gen.connect(port)
        await gen.closed_loop(inputs.history)
        rss_before_kb = server.memory_kb("VmRSS")
        subscribe_s: List[float] = []
        subscribe_at: List[int] = []
        for index, query in enumerate(inputs.standing):
            started = clock()
            reply = await counted(
                record, gen.subscriber.subscribe(keywords=list(query.terms))
            )
            subscribe_s.append(clock() - started)
            subscribe_at.append(gauge.block)
            if (index + 1) % DOCS_PER_BLOCK == 0:
                gauge.close_block()
            if reply is not None and reply["query_id"] != query.query_id:
                record.errors.append(
                    f"query {query.query_id} registered as {reply['query_id']}"
                )
        await gen.closed_loop(inputs.settle)
        gauge.close_block()
        closed_from = gauge.block
        rss_after_kb = server.memory_kb("VmRSS")
        if server.exited():
            raise RuntimeError("server exited during set-up")
        stats_before = await gen.publisher.stats()
        if tracer is not None:
            record.notes["setup_spans"] = tracer.take()
            tracer.take_bytes()

        # -- phase A: closed loop at saturation ----------------------------
        n_open = int(len(inputs.steps) * OPEN_STEPS_SHARE)
        closed = [step.doc for step in inputs.steps[: len(inputs.steps) - n_open]]
        opened = [step.doc for step in inputs.steps[len(closed):]]
        per_round = -(-len(closed) // ROUNDS)
        cpu_started = time.process_time()
        loop_cpu_started = time.thread_time()
        measured_started = clock()
        if tracer is not None:
            tracer.sampling = True
        for at in range(0, len(closed), per_round):
            round_started = clock()
            await gen.closed_loop(closed[at: at + per_round], IN_FLIGHT)
            record.round_rates.append(
                len(closed[at: at + per_round]) / (clock() - round_started)
            )
        gauge.close_block()
        open_from = gauge.block

        # -- phase B: open loop, timed from each document's due time -------
        due: List[float] = []
        due_at: List[int] = []
        late_s: List[float] = []
        sends: List[asyncio.Future] = []
        phase_b_started = clock() + 0.05
        for index, doc in enumerate(opened):
            due.append(phase_b_started + index / OPEN_RATE)
            wait = due[-1] - clock()
            if wait > 0:
                await asyncio.sleep(wait)
            late_s.append(clock() - due[-1])
            due_at.append(gauge.block)
            sends.append(asyncio.ensure_future(gen.publish(doc)))
            if (index + 1) % DOCS_PER_BLOCK == 0:
                gauge.close_block()
        done, unacked = await asyncio.wait(sends, timeout=BACKLOG_TIMEOUT_S)
        gauge.close_block()
        for send in unacked:
            send.cancel()
        record.failed += len(unacked)
        record.measured_wall_s = clock() - measured_started
        record.measured_cpu_s = time.process_time() - cpu_started
        record.notes["loop_cpu_s"] = time.thread_time() - loop_cpu_started
        if server.exited():
            raise RuntimeError("server exited while measured")
        stats_after = await gen.subscriber.stats()
        if not await gen.received_everything(stats_after):
            record.errors.append("notifications still missing after phase B")
        latency_s: List[float] = []
        latency_at: List[int] = []
        over_limit = len(unacked)
        for doc, send, due_s, block in zip(opened, sends, due, due_at):
            finished = send.result() if send in done else None
            if finished is None:
                over_limit += send in done
                continue
            took = gen.first_notify.get(doc.doc_id, finished) - due_s
            latency_s.append(took)
            latency_at.append(block)
            over_limit += took > LATENCY_LIMIT_S
        latency_ref_s = gauge.normalised(latency_s, latency_at)
        subscribe_ref_s = gauge.normalised(subscribe_s, subscribe_at)
        metrics["setup_s"] = gauge.seconds(0, closed_from)
        metrics["docs_per_s"] = len(closed) / gauge.seconds(closed_from, open_from)
        metrics["publish_p50_ms"] = percentile(latency_ref_s, 0.50) * 1e3
        metrics["subscribe_p50_ms"] = percentile(subscribe_ref_s, 0.50) * 1e3
        metrics["rss_per_query_kb"] = (rss_after_kb - rss_before_kb) / len(inputs.standing)
        metrics["peak_rss_mb"] = server.memory_kb("VmHWM") / 1024.0
        cpu_share = record.measured_cpu_s / record.measured_wall_s
        record.notes.update(
            raw={
                "setup_s": gauge.raw_seconds(0, closed_from),
                "docs_per_s": len(closed) / gauge.raw_seconds(closed_from, open_from),
                "publish_ms": latency_profile_ms(latency_s),
                "subscribe_p50_ms": percentile(subscribe_s, 0.50) * 1e3,
            },
            publish_ms=latency_profile_ms(latency_ref_s),
            speed_factor_p50=percentile(gauge.factors(), 0.50),
            over_limit_share=over_limit / len(opened),
            late_p99_ms=percentile(late_s, 0.99) * 1e3,
            loadgen_cpu_share=cpu_share,
            stats_before=stats_before,
            stats_after=stats_after,
            eventlog_records=stats_after["eventlog"]["end"],
            eventlog_bytes=sum(e.stat().st_size for e in os.scandir(log_dir)),
        )
        if tracer is None and cpu_share > MAX_LOADGEN_CPU_SHARE:
            record.errors.append(
                f"load generator used {cpu_share:.2f} of a core: it, not the "
                "server, set the numbers"
            )
        if tracer is not None:
            record.notes["measured_spans"] = tracer.take()
            record.notes["measured_bytes"] = tracer.take_bytes()
            record.notes["index"] = server.runtime.engine.index_size_report()
            record.notes["live_queries"] = len(inputs.standing)
        record.counters = {
            name: value - stats_before["counters"][name]
            for name, value in stats_after["counters"].items()
        }

        # -- phase C: SIGKILL, restart on the same directory ---------------
        sample = [q.query_id for q in inputs.standing][:: max(1, len(inputs.standing) // 20)]
        before = {}
        for query_id in sample:
            results = await counted(record, gen.subscriber.results(query_id))
            before[query_id] = [doc["doc_id"] for doc in results or []]
        await gen.close()
        await server.kill()
        if tracer is not None:
            tracer.uninstall()
        server = Server(port, log_dir)
        recover_started = clock()
        await server.start()
        client = await NdjsonTcpClient.connect(HOST, port)
        try:
            for query_id in sample:
                results = await counted(record, client.results(query_id))
                if [doc["doc_id"] for doc in results or []] != before[query_id]:
                    record.errors.append(f"query {query_id} differs after restart")
            record.notes["recover_s"] = clock() - recover_started
        finally:
            await client.close()
        await server.kill()
        if tracer is not None:
            # What the restart spent replaying, without process start-up.
            started = clock()
            state = recover(log_dir, DasEngine.for_method("GIFilter", k=K))
            record.notes["replay_records_per_s"] = state.replayed / (clock() - started)
            state.log.close()
    finally:
        await gen.close()
        await server.kill()
        shutil.rmtree(log_dir, ignore_errors=True)

    if len(set(gen.changes)) != len(gen.changes):
        record.errors.append("a notification was delivered twice")
    record.notes["changes"] = gen.changes
    return record


def run(
    w: Workload, inputs: Inputs, out_dir: str, tracer: Optional[Tracer]
) -> RunRecord:
    record = asyncio.run(_drive(w, inputs, out_dir, tracer))
    changes = record.notes.pop("changes")
    record.digest = stream_digest(changes)
    config = DasEngine.for_method("GIFilter", k=K).config
    wrong = oracle.mismatches(inputs, config, w.oracle_mod, changes)
    record.notes["oracle_mismatches"] = wrong
    if wrong:
        record.errors.append(f"{wrong} changes differ from the naive oracle")
    return record
