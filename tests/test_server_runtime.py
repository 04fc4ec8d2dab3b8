"""Serving-runtime tests: serialization equivalence, drain, batching.

The correctness bar (ISSUE 2): under any interleaving of concurrent
publishers, the notification stream delivered to each subscriber must be
a serialization consistent with some sequential publish order — asserted
here against a reference engine replaying the server's *accepted* order
(the doc-id order of the publish acks).
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.config import ServerConfig
from repro.core.engine import DasEngine
from repro.core.query import DasQuery
from repro.errors import EmptyQueryError, ServerClosedError
from repro.server import InProcessClient, ServerRuntime
from repro.stream.document import Document


def run(coroutine, timeout=30.0):
    """Run an async scenario with a hard deadline (deadlock guard)."""
    return asyncio.run(asyncio.wait_for(coroutine, timeout))


def small_engine(**overrides):
    defaults = dict(k=3, block_size=4)
    defaults.update(overrides)
    return DasEngine.for_method("GIFilter", **defaults)


def triple(message):
    replaced = message["replaced"]
    return (
        message["query_id"],
        message["document"]["doc_id"],
        replaced["doc_id"] if replaced else None,
    )


KEYWORD_SETS = [
    ["coffee", "espresso"],
    ["coffee", "beans"],
    ["tea", "green"],
    ["espresso", "machine"],
]


def token_streams(n_publishers, docs_each):
    """Deterministic per-publisher token-list streams that hit the
    subscriptions above."""
    base = ["coffee", "espresso", "beans", "tea", "green", "machine"]
    streams = []
    for publisher in range(n_publishers):
        stream = []
        for index in range(docs_each):
            term = base[(publisher + index) % len(base)]
            other = base[(publisher * 3 + index * 2 + 1) % len(base)]
            stream.append([term, other, f"u{publisher}_{index}"])
        streams.append(stream)
    return streams


async def _concurrent_scenario(n_publishers, docs_each):
    """Subscribe, publish concurrently, drain; return what's needed for
    the reference replay."""
    runtime = ServerRuntime(
        small_engine(),
        ServerConfig(
            ingest_capacity=16,
            outbound_capacity=4096,
            max_batch_size=8,
            drain_timeout=10.0,
        ),
    )
    await runtime.start()
    subscriber = InProcessClient(runtime)  # block policy: lossless
    query_ids = []
    for keywords in KEYWORD_SETS:
        reply = await subscriber.subscribe(keywords)
        query_ids.append(reply["query_id"])

    received = []

    async def consume():
        while True:
            message = await subscriber.next_message()
            if message is None or message["op"] == "closed":
                return
            received.append(message)

    consumer = asyncio.create_task(consume())

    acks = []

    async def publisher(stream):
        client = InProcessClient(runtime)
        for tokens in stream:
            ack = await client.publish(tokens=tokens)
            acks.append((ack["doc_id"], ack["created_at"], tokens))
        await client.close()

    await asyncio.gather(
        *[publisher(stream) for stream in token_streams(n_publishers, docs_each)]
    )
    stats = await subscriber.stats()
    await runtime.stop()  # graceful drain: flush delivery, then close
    await consumer
    return query_ids, acks, received, stats, subscriber.session


def replay_reference(query_ids, acks):
    """Reference engine replaying the accepted order sequentially."""
    reference = small_engine()
    for query_id, keywords in zip(query_ids, KEYWORD_SETS):
        reference.subscribe(DasQuery(query_id, keywords))
    expected = []
    for doc_id, created_at, tokens in sorted(acks):
        for notification in reference.publish(
            Document.from_tokens(doc_id, tokens, created_at)
        ):
            expected.append(
                (
                    notification.query_id,
                    notification.document.doc_id,
                    notification.replaced.doc_id
                    if notification.replaced
                    else None,
                )
            )
    return expected


@pytest.mark.parametrize("n_publishers", [1, 4])
def test_serialization_equivalence_under_concurrent_publishers(n_publishers):
    query_ids, acks, received, stats, session = run(
        _concurrent_scenario(n_publishers, docs_each=12)
    )
    # Every publish was accepted exactly once, with unique increasing ids.
    doc_ids = sorted(doc_id for doc_id, _ts, _tokens in acks)
    assert doc_ids == list(range(len(doc_ids)))
    assert stats["accepted"] == n_publishers * 12
    # The delivered stream equals the reference replay of the accepted
    # order — same notifications, same global order, nothing lost
    # (graceful shutdown under the block policy).
    assert [triple(message) for message in received] == replay_reference(
        query_ids, acks
    )
    assert session.dropped == 0


def test_graceful_shutdown_flushes_ingestion_and_delivery():
    async def scenario():
        runtime = ServerRuntime(
            small_engine(k=2, alpha=1.0, decay_base=1.5),
            ServerConfig(
                ingest_capacity=64,
                outbound_capacity=512,
                max_batch_size=4,
                drain_timeout=10.0,
            ),
        )
        await runtime.start()
        subscriber = InProcessClient(runtime)
        publisher = InProcessClient(runtime)
        reply = await subscriber.subscribe(["x"])
        query_id = reply["query_id"]
        # Queue publishes without awaiting acks, then immediately stop:
        # drain must still process every accepted item.
        publish_tasks = [
            asyncio.create_task(
                publisher.publish(tokens=["x", f"u{i}"], created_at=float(i))
            )
            for i in range(12)
        ]
        await asyncio.sleep(0)  # let every put land before the sentinel
        stop_task = asyncio.create_task(runtime.stop())
        messages = []
        while True:
            message = await subscriber.next_message(timeout=5.0)
            if message is None or message["op"] == "closed":
                break
            messages.append(message)
        await stop_task
        acks = await asyncio.gather(*publish_tasks)
        return runtime, query_id, messages, acks

    runtime, query_id, messages, acks = run(scenario())
    assert [ack["doc_id"] for ack in acks] == list(range(12))
    # Every accepted document triggered exactly one notification for the
    # standing query (verified workload shape), none lost on shutdown.
    assert [m["document"]["doc_id"] for m in messages] == list(range(12))
    assert all(m["query_id"] == query_id for m in messages)
    assert runtime.state == "stopped"


def test_rejects_work_after_stop():
    async def scenario():
        runtime = ServerRuntime(small_engine(), ServerConfig())
        await runtime.start()
        client = InProcessClient(runtime)
        await client.subscribe(["x"])
        await runtime.stop()
        with pytest.raises(ServerClosedError):
            await client.publish(tokens=["x"])
        with pytest.raises(ServerClosedError):
            runtime.open_session()
        # stats still answer after shutdown (admin surface).
        stats = runtime.stats()
        assert stats["state"] == "stopped"

    run(scenario())


def test_structured_errors_propagate_through_transport():
    async def scenario():
        runtime = ServerRuntime(small_engine(), ServerConfig())
        await runtime.start()
        client = InProcessClient(runtime)
        with pytest.raises(EmptyQueryError):
            await client.subscribe([])
        reply = await runtime.handle_request(
            client.session, {"op": "bogus", "id": 7}
        )
        assert reply["ok"] is False
        assert reply["error"]["type"] == "ProtocolError"
        assert reply["reply_to"] == 7
        await runtime.stop()

    run(scenario())


def test_adaptive_batching_engages_under_backlog():
    async def scenario():
        runtime = ServerRuntime(
            small_engine(),
            # The subscriber never reads; draining to it is not under test.
            ServerConfig(
                ingest_capacity=256, outbound_capacity=1024,
                max_batch_size=16, drain_timeout=0.1,
            ),
        )
        await runtime.start()
        client = InProcessClient(runtime)
        await client.subscribe(["coffee"])
        # Flood without awaiting: the matcher sees a backlog and must
        # coalesce multiple documents per engine call.
        tasks = [
            asyncio.create_task(
                client.publish(tokens=["coffee", f"u{i}"], created_at=float(i))
            )
            for i in range(60)
        ]
        await asyncio.gather(*tasks)
        stats = runtime.stats()
        await runtime.stop()
        return stats

    stats = run(scenario())
    histogram = stats["batches"]
    assert histogram["documents"] == 60
    assert histogram["max_size"] > 1  # batching actually engaged
    assert histogram["batches"] < 60


def test_submit_then_complete_pipelines_requests_in_order():
    """The two halves of ``handle_request`` that the TCP transport
    pipelines: submitting never waits for a reply, so requests queue up
    together, and completing in submission order answers them in it."""

    async def scenario():
        # The subscriber never reads; draining to it is not under test.
        runtime = ServerRuntime(small_engine(), ServerConfig(drain_timeout=0.1))
        await runtime.start()
        client = InProcessClient(runtime)
        await client.subscribe(["coffee"])
        requests = [
            {"op": "publish", "id": i, "tokens": ["coffee", f"u{i}"],
             "created_at": float(i)}
            for i in range(10)
        ]
        requests.insert(4, {"op": "publish", "id": "bad"})  # no tokens/text
        requests.append({"op": "stats", "id": "stats"})
        pending = [
            await runtime.submit_request(client.session, request)
            for request in requests
        ]
        # Nothing was awaited yet: all ten documents sit in the queue.
        assert runtime.stats()["ingest_depth"] == 10
        replies = [
            await runtime.complete_request(reply) for reply in pending
        ]
        await runtime.stop()
        return replies

    replies = run(scenario())
    stats = replies.pop()
    bad = replies.pop(4)
    assert [reply["reply_to"] for reply in replies] == list(range(10))
    assert [reply["doc_id"] for reply in replies] == list(range(10))
    assert (bad["ok"], bad["reply_to"]) == (False, "bad")
    assert bad["error"]["type"] == "ProtocolError"
    # The matcher drained what was queued as one batch, and the stats
    # request — executed when its turn to be answered came — saw it.
    assert stats["stats"]["accepted"] == 10
    assert stats["stats"]["batches"]["buckets"] == {"9-16": 1}
    assert "batch_target" not in stats["stats"]


def test_matcher_drains_to_the_cap_and_stops_at_a_barrier():
    """The batch is whatever is already queued: capped at
    ``max_batch_size``, ended by a control item (which runs right after
    it, in order), and a batch of one when nothing else waits."""

    async def scenario():
        # The subscriber never reads; draining to it is not under test.
        runtime = ServerRuntime(
            small_engine(), ServerConfig(max_batch_size=4, drain_timeout=0.1)
        )
        await runtime.start()
        client = InProcessClient(runtime)
        query_id = (await client.subscribe(["coffee"]))["query_id"]
        publish = [
            {"op": "publish", "id": i, "tokens": ["coffee", f"u{i}"],
             "created_at": float(i)}
            for i in range(8)
        ]
        requests = publish[:6] + [
            {"op": "results", "id": "barrier", "query_id": query_id}
        ] + publish[6:]
        pending = [
            await runtime.submit_request(client.session, request)
            for request in requests
        ]
        replies = [
            await runtime.complete_request(reply) for reply in pending
        ]
        batched = runtime.stats()["batches"]["buckets"]
        await client.publish(tokens=["coffee", "alone"], created_at=9.0)
        after = runtime.stats()["batches"]["buckets"]
        await runtime.stop()
        return replies, batched, after

    replies, batched, after = run(scenario())
    # 6 queued publishes -> 4 (the cap) + 2 (cut by the barrier), then
    # the 2 behind the barrier.
    assert batched == {"3-4": 1, "2": 2}
    assert after == {"3-4": 1, "2": 2, "1": 1}
    assert [reply["reply_to"] for reply in replies] == (
        [0, 1, 2, 3, 4, 5, "barrier", 6, 7]
    )
    # The barrier ran in its place: it saw the six before it, not the
    # two behind it.
    seen = [doc["doc_id"] for doc in replies[6]["results"]]
    assert len(seen) == 3 and max(seen) == 5


def test_wraps_instrumented_engine():
    """The runtime calls the engine directly, so a proxy with its surface
    serves like the engine: the simulation's ``InstrumentedEngine``
    forwards the reads the runtime makes, and the runtime continues the
    query ids, document ids and clock of an engine fed before it."""
    from repro.simulation.invariants import InstrumentedEngine

    engine = small_engine()
    engine.subscribe(DasQuery(4, ["tea"]))
    engine.publish(Document.from_tokens(6, ["tea", "pot"], 2.0))

    async def scenario():
        runtime = ServerRuntime(
            InstrumentedEngine(engine), ServerConfig(drain_timeout=5.0)
        )
        await runtime.start()
        subscriber = InProcessClient(runtime)
        reply = await subscriber.subscribe(["coffee"])
        ack = await subscriber.publish(
            tokens=["coffee", "fresh"], created_at=1.0
        )
        message = await subscriber.next_message(timeout=5.0)
        results = await subscriber.results(reply["query_id"])
        await runtime.stop()
        return reply, ack, message, results

    reply, ack, message, results = run(scenario())
    assert reply["query_id"] == 5
    # Ids continue past the engine's; time never runs backwards.
    assert (ack["doc_id"], ack["created_at"]) == (7, 2.0)
    assert message["op"] == "notify"
    assert message["document"]["doc_id"] == 7
    assert [doc["doc_id"] for doc in results] == [7]
    assert engine.counters.docs_published == 2


class ThreadRecordingEngine:
    """Engine proxy recording ``(method, thread id)`` for every call."""

    def __init__(self, engine):
        self._inner = engine
        self.calls = []

    def __getattr__(self, name):
        value = getattr(self._inner, name)
        if not callable(value):
            return value

        def call(*args, **kwargs):
            self.calls.append((name, threading.get_ident()))
            return value(*args, **kwargs)

        return call


def test_served_engine_runs_on_the_event_loop_thread():
    """The matcher calls the engine on the loop's own thread, and the
    runtime starts no thread of its own."""
    engine = ThreadRecordingEngine(small_engine())

    async def scenario():
        before = set(threading.enumerate())
        runtime = ServerRuntime(engine, ServerConfig(drain_timeout=5.0))
        await runtime.start()
        client = InProcessClient(runtime)
        reply = await client.subscribe(["coffee"])
        await client.publish(tokens=["coffee", "fresh"], created_at=1.0)
        await client.next_message(timeout=5.0)
        await client.results(reply["query_id"])
        await client.stats()
        started = set(threading.enumerate()) - before
        await runtime.stop()
        return threading.get_ident(), started

    loop_thread, started = run(scenario())
    called = {name for name, _thread in engine.calls}
    assert {"subscribe", "publish_batch", "results"} <= called
    assert {thread for _name, thread in engine.calls} == {loop_thread}
    assert started == set()


def test_matcher_survives_a_poisoned_batch():
    """ISSUE 3 regression (S1): an engine exception mid-batch must fail
    that batch's acks and nothing else — the matcher keeps serving, and
    a later graceful stop drains normally."""
    from repro.errors import InjectedFaultError
    from repro.simulation import FaultPlan

    async def scenario():
        runtime = ServerRuntime(
            small_engine(),
            ServerConfig(
                max_batch_size=1,
                drain_timeout=10.0,
                fault_injector=FaultPlan.parse(
                    "engine.publish_batch@2:raise"
                ).injector(),
            ),
        )
        await runtime.start()
        subscriber = InProcessClient(runtime)
        await subscriber.subscribe(["coffee"])
        first = await subscriber.publish(tokens=["coffee", "a"])
        with pytest.raises(InjectedFaultError):
            await subscriber.publish(tokens=["coffee", "b"])
        third = await subscriber.publish(tokens=["coffee", "c"])
        delivered = []
        for _ in range(2):
            message = await subscriber.next_message(timeout=5.0)
            delivered.append(message["document"]["doc_id"])
        stats = runtime.stats()
        await runtime.stop()
        return first, third, delivered, stats, runtime

    first, third, delivered, stats, runtime = run(scenario())
    assert first["doc_id"] == 0
    assert third["doc_id"] == 2  # the id was spent; the matcher moved on
    assert delivered == [0, 2]
    assert stats["matcher_errors"] == 1
    assert runtime.state == "stopped"


def test_stop_reports_documents_lost_to_a_faulted_drain():
    """ISSUE 3 regression (S1): when the engine raises while stop() is
    draining, stop must still complete, fail the affected acks instead
    of hanging them, and report the loss in its stats."""
    from repro.simulation import FaultPlan

    async def scenario():
        runtime = ServerRuntime(
            small_engine(),
            ServerConfig(
                ingest_capacity=64,
                max_batch_size=1,
                drain_timeout=10.0,
                fault_injector=FaultPlan.parse(
                    "engine.publish_batch@3:raise"
                ).injector(),
            ),
        )
        await runtime.start()
        subscriber = InProcessClient(runtime)
        await subscriber.subscribe(["x"])

        async def read_to_the_end():
            # An unread outbox would make stop() wait out drain_timeout.
            while await subscriber.next_message() is not None:
                pass

        reader = asyncio.create_task(read_to_the_end())
        publish_tasks = [
            asyncio.create_task(subscriber.publish(tokens=["x", f"u{i}"]))
            for i in range(6)
        ]
        await asyncio.sleep(0)  # let every put land before the sentinel
        await runtime.stop()  # graceful drain hits the injected fault
        await reader
        acks = await asyncio.gather(*publish_tasks, return_exceptions=True)
        return acks, runtime.stats()

    acks, stats = run(scenario())
    failed = [a for a in acks if isinstance(a, BaseException)]
    succeeded = [a for a in acks if not isinstance(a, BaseException)]
    assert len(failed) == 1  # exactly the poisoned batch, nothing else
    assert len(succeeded) == 5
    assert stats["matcher_errors"] == 1
    assert stats["state"] == "stopped"


def test_doc_ids_continue_after_preloaded_history():
    async def scenario():
        engine = small_engine()
        engine.publish(Document.from_tokens(0, ["coffee"], 0.0))
        engine.publish(Document.from_tokens(1, ["tea"], 1.0))
        runtime = ServerRuntime(engine, ServerConfig())
        await runtime.start()
        client = InProcessClient(runtime)
        ack = await client.publish(tokens=["coffee"], created_at=2.0)
        await runtime.stop()
        return ack

    assert run(scenario())["doc_id"] == 2


def test_closed_sessions_leave_no_throttle_bucket():
    """A throttled session's token bucket goes with the session, so
    ``stats()["throttling"]["buckets"]`` lists open sessions only."""

    async def scenario():
        runtime = ServerRuntime(
            small_engine(), ServerConfig(throttle_rate=1000.0)
        )
        await runtime.start()
        for i in range(50):
            client = InProcessClient(runtime)
            await client.publish(tokens=["coffee"], created_at=float(i))
            await client.close()
        stats = runtime.stats()
        await runtime.stop()
        return stats

    stats = run(scenario())
    assert stats["accepted"] == 50
    assert stats["sessions"] == []
    assert stats["throttling"]["buckets"] == {}


def test_pipeline_durations_ignore_wall_clock_steps(monkeypatch):
    """With no ``time_source`` the pipeline histograms time with the
    monotonic clock: a wall-clock step of an hour while a batch is being
    matched records no hour of latency, and the default publish
    timestamp still reads the wall clock."""
    import time

    wall = [5_000.0]
    monkeypatch.setattr(time, "time", lambda: wall[0])

    async def scenario():
        engine = small_engine()
        match = engine.publish_batch

        def step_then_match(documents):
            wall[0] += 3_600.0
            return match(documents)

        engine.publish_batch = step_then_match
        runtime = ServerRuntime(engine, ServerConfig())
        await runtime.start()
        client = InProcessClient(runtime)
        acks = await asyncio.gather(
            *(client.publish(tokens=["coffee", f"w{i}"]) for i in range(4))
        )
        stats = runtime.stats()
        await runtime.stop()
        return acks, stats

    acks, stats = run(scenario())
    assert acks[0]["created_at"] == 5_000.0
    stages = stats["telemetry"]["stages"]
    assert sum(stages["micro_batch"]["counts"]) >= 1
    for stage in ("ingest_queue", "micro_batch", "notify"):
        assert stages[stage]["sum"] < 1.0, stage
