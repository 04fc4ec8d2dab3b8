"""Crash matrix: kill points × engine shapes, vs an uninterrupted oracle.

Each cell crashes a durable runtime at one pipeline stage and proves
that, after recovery + ``resume``, the subscriber's end-to-end
notification stream is **byte-identical** to an uninterrupted run of
the same schedule (JSON with sorted keys), with no duplicate delivery.

Kill points (where the crash lands relative to one accepted op):

``pre_append``
    Before the op reaches the log: it was never accepted, the driver
    retries it after recovery (classic client retry).
``post_append_pre_match``
    The ``eventlog.match`` injection raises after the append, before
    the engine sees the op: logged-but-unmatched, the at-least-once
    in-doubt window.  No driver retry — replay must surface it.
``post_match_pre_deliver``
    The op matched and its notifications were enqueued, but the client
    never read them before the crash: the retained outbox plus
    ``resume`` must replay exactly the unacked suffix.
``mid_checkpoint``
    The crash tears a checkpoint write (``checkpoint.write`` torn
    fault) after an earlier clean checkpoint: recovery must fall back
    to the older checkpoint and a longer replay.

Shapes: a single DAS engine, an in-process sharded engine, and the
process-parallel deployment (worker subprocesses).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.config import ServerConfig
from repro.core.engine import DasEngine
from repro.distributed import ShardedDasEngine
from repro.errors import ReproError
from repro.server import InProcessClient, ServerRuntime
from repro.simulation.faults import FaultPlan

SHAPES = ("single", "sharded", "parallel")
KILL_POINTS = (
    "pre_append",
    "post_append_pre_match",
    "post_match_pre_deliver",
    "mid_checkpoint",
)

SUB = "matrix"
SUBSCRIPTIONS = [["coffee", "espresso"], ["tea", "green"]]
PUBLISHES = [
    (["coffee", "espresso", "u0"], 1.0),
    (["tea", "green", "u1"], 2.0),
    (["coffee", "beans", "u2"], 3.0),
    (["espresso", "machine", "u3"], 4.0),
    (["tea", "leaves", "u4"], 5.0),
    (["coffee", "espresso", "u5"], 6.0),
]
#: The op the crash lands on (a publish index).
CRASH_AT = 3


def run(coroutine, timeout=120.0):
    return asyncio.run(asyncio.wait_for(coroutine, timeout))


def make_engine(shape):
    base = DasEngine.for_method("GIFilter", k=3, block_size=4)
    if shape == "sharded":
        return ShardedDasEngine(2, base.config)
    return base


def make_config(directory, shape, plan=None):
    return ServerConfig(
        inline_matcher=True,
        eventlog_dir=directory,
        eventlog_segment_entries=4,
        outbound_capacity=256,
        parallel_workers=2 if shape == "parallel" else 0,
        fault_injector=FaultPlan.parse(plan).injector() if plan else None,
    )


async def start_runtime(directory, shape, plan=None):
    runtime = ServerRuntime(
        make_engine(shape), make_config(directory, shape, plan)
    )
    await runtime.start()
    return runtime


class Driver:
    """One subscriber connection: drains pushes, acks what it saw."""

    def __init__(self, runtime):
        self.client = InProcessClient(runtime)
        self.received = []
        self.acked = -1

    async def attach(self, offset):
        reply = await self.client.resume(SUB, offset)
        await self.drain()
        return reply

    async def drain(self):
        """Pull every already-enqueued push (inline matcher: a publish
        resolves only after its notifications are enqueued)."""
        while True:
            try:
                message = await self.client.next_message(timeout=0.02)
            except asyncio.TimeoutError:
                return
            if message is None or message.get("op") != "notify":
                continue
            self.received.append(message)

    async def publish(self, tokens, created_at):
        ack = await self.client.publish(
            tokens=tokens, created_at=created_at
        )
        await self.drain()
        return ack

    async def ack_seen(self):
        top = max(
            (note["offset"] for note in self.received), default=-1
        )
        if top > self.acked:
            await self.client.ack(top)
            self.acked = top


def canonical(received):
    return [json.dumps(note, sort_keys=True) for note in received]


async def run_uninterrupted(directory, shape):
    """The oracle: the same schedule with no crash."""
    runtime = await start_runtime(directory, shape)
    driver = Driver(runtime)
    await driver.attach(-1)
    for keywords in SUBSCRIPTIONS:
        await driver.client.subscribe(keywords)
    for tokens, created_at in PUBLISHES:
        await driver.publish(tokens, created_at)
        await driver.ack_seen()
    await driver.client.close()
    await runtime.stop()
    return canonical(driver.received)


async def run_with_crash(directory, shape, kill_point):
    plan = None
    if kill_point == "post_append_pre_match":
        # Arrivals at eventlog.match count publish batches only.
        plan = f"eventlog.match@{CRASH_AT + 1}:raise"
    elif kill_point == "mid_checkpoint":
        plan = "checkpoint.write@2:torn"

    runtime = await start_runtime(directory, shape, plan)
    driver = Driver(runtime)
    await driver.attach(-1)
    for keywords in SUBSCRIPTIONS:
        await driver.client.subscribe(keywords)

    crashed_op_logged = None
    for index, (tokens, created_at) in enumerate(PUBLISHES):
        if index == CRASH_AT:
            if kill_point == "pre_append":
                crashed_op_logged = False  # never submitted: retry it
            elif kill_point == "post_append_pre_match":
                with pytest.raises(ReproError):
                    await driver.publish(tokens, created_at)
                crashed_op_logged = True  # logged, engine untouched
            elif kill_point == "post_match_pre_deliver":
                await driver.client.publish(
                    tokens=tokens, created_at=created_at
                )
                # Enqueued but never read: the crash eats the session
                # queue; only the retained outbox survives.
                crashed_op_logged = True
            elif kill_point == "mid_checkpoint":
                await runtime.checkpoint_eventlog()  # clean (arrival 1)
                await driver.publish(tokens, created_at)
                await driver.ack_seen()
                with pytest.raises(Exception):
                    await runtime.checkpoint_eventlog()  # torn (arrival 2)
                crashed_op_logged = True
            break
        await driver.publish(tokens, created_at)
        await driver.ack_seen()

    # The crash: no drain, no goodbye; durable state only.
    await runtime.stop(drain=False)

    # -- recovery ---------------------------------------------------------
    runtime = await start_runtime(directory, shape)
    driver2 = Driver(runtime)
    driver2.received = driver.received
    driver2.acked = driver.acked
    # The acked floor is already durable via the per-publish ack
    # records, so resume with -1: the outbox replay is exactly the
    # unacked suffix and no extra ack record shifts log offsets
    # relative to the oracle.
    await driver2.attach(-1)
    await driver2.ack_seen()
    resume_index = CRASH_AT if crashed_op_logged is False else CRASH_AT + 1
    for tokens, created_at in PUBLISHES[resume_index:]:
        await driver2.publish(tokens, created_at)
        await driver2.ack_seen()
    await driver2.drain()
    stats = await driver2.client.stats()
    await driver2.client.close()
    await runtime.stop()
    return canonical(driver2.received), stats


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kill_point", KILL_POINTS)
def test_crash_matrix_stream_is_byte_identical(
    tmp_path, shape, kill_point
):
    oracle = run(run_uninterrupted(str(tmp_path / "oracle"), shape))
    stream, stats = run(
        run_with_crash(str(tmp_path / "crash"), shape, kill_point)
    )
    # Zero accepted-op loss and no duplicate delivery, byte for byte.
    assert stream == oracle
    pairs = [
        (json.loads(note)["offset"], json.loads(note)["query_id"])
        for note in stream
    ]
    assert len(set(pairs)) == len(pairs)
    recovery = stats["eventlog"]["recovery"]
    if kill_point == "mid_checkpoint":
        # The torn candidate was skipped for the older clean checkpoint.
        assert recovery["checkpoint_offset"] >= 0
    assert stats["dlq"]["entries"] == 0
