"""Slow-consumer policy tests: one stalled subscriber per policy.

The workload is tuned so every post-warm-up publish triggers exactly one
replacement notification per standing query (k=2, alpha=1, fast decay,
each document strictly fresher), making drop/coalesce counters exactly
predictable.  A healthy "control" subscriber with the same keywords
receives the full stream, proving the matcher kept making progress
around the stalled one.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.config import ServerConfig
from repro.core.engine import DasEngine
from repro.server import InProcessClient, ServerRuntime


def run(coroutine, timeout=30.0):
    return asyncio.run(asyncio.wait_for(coroutine, timeout))


def engine():
    # Every publish after warm-up evicts the oldest result: one
    # notification per query per document, deterministically.
    return DasEngine.for_method(
        "GIFilter", k=2, block_size=4, alpha=1.0, decay_base=1.5,
    )


def make_runtime(**overrides):
    defaults = dict(
        ingest_capacity=64,
        outbound_capacity=2,
        max_batch_size=1,
        drain_timeout=5.0,
    )
    defaults.update(overrides)
    return ServerRuntime(engine(), ServerConfig(**defaults))


async def drain_messages(client, count, timeout=5.0):
    messages = []
    for _ in range(count):
        messages.append(await client.next_message(timeout=timeout))
    return messages


N_DOCS = 8


async def _publish_all(runtime, n=N_DOCS):
    publisher = InProcessClient(runtime, capacity=4)
    for i in range(n):
        await publisher.publish(tokens=["x", f"u{i}"], created_at=float(i))
    await publisher.close()


def test_block_policy_applies_backpressure_without_loss():
    async def scenario():
        runtime = make_runtime()
        await runtime.start()
        stalled = InProcessClient(runtime, policy="block", capacity=2)
        await stalled.subscribe(["x"])
        control = InProcessClient(runtime, policy="block", capacity=64)
        await control.subscribe(["x"])

        control_received = []

        async def consume_control():
            while True:
                message = await control.session.next_message()
                if message is None or message["op"] == "closed":
                    return
                control_received.append(message)

        control_task = asyncio.create_task(consume_control())
        publish_task = asyncio.create_task(_publish_all(runtime))

        # The stalled consumer's queue fills after 2 notifications; the
        # matcher then blocks offering the 3rd — publishing stalls.
        await asyncio.sleep(0.2)
        assert not publish_task.done()
        assert stalled.session.depth == 2
        accepted_while_stalled = runtime.stats()["accepted"]
        assert accepted_while_stalled < N_DOCS  # backpressure reached ingestion

        # The consumer resumes: the matcher unblocks and every
        # notification is delivered — nothing dropped, nothing lost.
        stalled_received = []
        while len(stalled_received) < N_DOCS:
            message = await stalled.next_message(timeout=5.0)
            if message["op"] != "closed":
                stalled_received.append(message)
        await asyncio.wait_for(publish_task, 5.0)
        await runtime.stop()
        await control_task
        return runtime, stalled, stalled_received, control_received

    runtime, stalled, stalled_received, control_received = run(scenario())
    assert [m["document"]["doc_id"] for m in stalled_received] == list(
        range(N_DOCS)
    )
    assert [m["document"]["doc_id"] for m in control_received] == list(
        range(N_DOCS)
    )
    assert stalled.session.dropped == 0
    assert runtime.stats()["policy_drops"]["block"] == 0


def test_drop_oldest_policy_sheds_stalest_notifications():
    async def scenario():
        runtime = make_runtime()
        await runtime.start()
        stalled = InProcessClient(runtime, policy="drop_oldest", capacity=2)
        await stalled.subscribe(["x"])
        control = InProcessClient(runtime, policy="block", capacity=64)
        await control.subscribe(["x"])

        await _publish_all(runtime)  # never blocks: drops absorb the stall

        session = stalled.session
        assert session.depth == 2
        # Exactly one notification per publish was offered; all but the
        # newest `capacity` were dropped.
        assert session.enqueued == N_DOCS
        assert session.dropped == N_DOCS - 2
        kept = await drain_messages(stalled, 2)
        control_messages = await drain_messages(control, N_DOCS)
        stats = runtime.stats()
        await runtime.stop()
        return kept, control_messages, stats

    kept, control_messages, stats = run(scenario())
    # The newest two survive; the control subscriber saw everything.
    assert [m["document"]["doc_id"] for m in kept] == [N_DOCS - 2, N_DOCS - 1]
    assert [m["document"]["doc_id"] for m in control_messages] == list(
        range(N_DOCS)
    )
    assert stats["policy_drops"]["drop_oldest"] == N_DOCS - 2
    assert stats["policy_drops"]["block"] == 0


def test_coalesce_policy_keeps_latest_snapshot_per_query():
    async def scenario():
        runtime = make_runtime(outbound_capacity=4)
        await runtime.start()
        stalled = InProcessClient(runtime, policy="coalesce", capacity=4)
        reply = await stalled.subscribe(["x"])
        query_id = reply["query_id"]

        await _publish_all(runtime)

        session = stalled.session
        # One snapshot offer per publish; all collapsed onto one entry.
        assert session.depth == 1
        assert session.coalesced == N_DOCS - 1
        assert session.dropped == 0
        snapshot = await stalled.next_message(timeout=5.0)
        live_results = await stalled.results(query_id)
        stats = runtime.stats()
        await runtime.stop()
        return query_id, snapshot, live_results, stats

    query_id, snapshot, live_results, stats = run(scenario())
    assert snapshot["op"] == "snapshot"
    assert snapshot["query_id"] == query_id
    assert snapshot["coalesced"] == N_DOCS - 1
    # The delivered snapshot IS the live result set (latest state only).
    assert snapshot["results"] == live_results
    assert [doc["doc_id"] for doc in snapshot["results"]] == [
        N_DOCS - 1,
        N_DOCS - 2,
    ]
    assert stats["coalesced"] == N_DOCS - 1


def test_disconnect_policy_kicks_the_stalled_consumer():
    async def scenario():
        runtime = make_runtime()
        await runtime.start()
        stalled = InProcessClient(runtime, policy="disconnect", capacity=2)
        await stalled.subscribe(["x"])
        control = InProcessClient(runtime, policy="block", capacity=64)
        await control.subscribe(["x"])

        await _publish_all(runtime)  # 3rd offer closes the stalled session

        engine_queries = runtime.engine.query_count
        stats = runtime.stats()
        # The stalled consumer still drains what was queued, then sees
        # the structured close.
        pending = await drain_messages(stalled, 2)
        closed = await stalled.next_message(timeout=5.0)
        control_messages = await drain_messages(control, N_DOCS)
        await runtime.stop()
        return (
            runtime, stalled, stats, engine_queries,
            pending, closed, control_messages,
        )

    (
        runtime, stalled, stats, engine_queries,
        pending, closed, control_messages,
    ) = run(scenario())
    assert stalled.session.closed
    assert stalled.session.close_reason == "slow_consumer"
    assert stats["disconnects"] == 1
    # Its subscription was released; only the control query remains.
    assert engine_queries == 1
    assert [m["document"]["doc_id"] for m in pending] == [0, 1]
    assert closed == {"op": "closed", "reason": "slow_consumer"}
    # The matcher never stopped: the healthy subscriber got everything.
    assert [m["document"]["doc_id"] for m in control_messages] == list(
        range(N_DOCS)
    )


@pytest.mark.parametrize("policy", ["block", "drop_oldest", "coalesce"])
def test_policies_are_noop_for_keeping_consumers(policy):
    """A consumer that keeps up sees identical streams under any
    non-disconnect policy (coalesce delivers snapshots instead)."""

    async def scenario():
        runtime = make_runtime(outbound_capacity=64)
        await runtime.start()
        client = InProcessClient(runtime, policy=policy, capacity=64)
        await client.subscribe(["x"])
        publisher = InProcessClient(runtime)
        messages = []
        for i in range(4):  # consume after every publish: never lags
            await publisher.publish(tokens=["x", f"u{i}"], created_at=float(i))
            messages.append(await client.next_message(timeout=5.0))
        await runtime.stop()
        return messages

    messages = run(scenario())
    if policy == "coalesce":
        assert [m["op"] for m in messages] == ["snapshot"] * 4
        assert [m["coalesced"] for m in messages] == [0] * 4
    else:
        assert [m["document"]["doc_id"] for m in messages] == [0, 1, 2, 3]
