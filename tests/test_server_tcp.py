"""NDJSON-over-TCP transport integration tests (ephemeral port)."""

from __future__ import annotations

import asyncio
import gc

import pytest

from repro.config import ServerConfig
from repro.core.engine import DasEngine
from repro.errors import UnknownQueryError
from repro.server import NdjsonTcpClient, NdjsonTcpServer, ServerRuntime
from repro.server.protocol import decode_line, encode_line
from tests.test_server_runtime import KEYWORD_SETS, replay_reference, triple


def run(coroutine, timeout=30.0):
    return asyncio.run(asyncio.wait_for(coroutine, timeout))


async def start_stack(engine=None, **config_overrides):
    defaults = dict(outbound_capacity=256, drain_timeout=5.0, port=0)
    defaults.update(config_overrides)
    if engine is None:
        engine = DasEngine.for_method(
            "GIFilter", k=3, block_size=4, backend="python"
        )
    runtime = ServerRuntime(engine, ServerConfig(**defaults))
    await runtime.start()
    server = NdjsonTcpServer(runtime)
    host, port = await server.start()
    return runtime, server, host, port


def test_full_session_over_tcp():
    async def scenario():
        runtime, server, host, port = await start_stack()
        subscriber = await NdjsonTcpClient.connect(host, port)
        publisher = await NdjsonTcpClient.connect(host, port)

        reply = await subscriber.subscribe(["coffee", "espresso"])
        query_id = reply["query_id"]
        assert reply["initial"] == []

        ack = await publisher.publish(
            tokens=["coffee", "downtown"], created_at=1.0
        )
        assert ack == {
            "ok": True, "reply_to": 0, "doc_id": 0, "created_at": 1.0,
        }
        note = await subscriber.next_message(timeout=5.0)
        assert note["op"] == "notify"
        assert note["query_id"] == query_id
        assert note["document"]["tf"] == {"coffee": 1, "downtown": 1}

        # Text publishing tokenises server-side (stopwords removed).
        await publisher.publish(text="the espresso machine", created_at=2.0)
        note = await subscriber.next_message(timeout=5.0)
        assert note["document"]["text"] == "the espresso machine"
        assert "the" not in note["document"]["tf"]

        results = await subscriber.results(query_id)
        assert [doc["doc_id"] for doc in results] == [1, 0]

        stats = await publisher.stats()
        assert stats["accepted"] == 2
        assert stats["state"] == "running"
        assert len(stats["sessions"]) == 2

        await subscriber.unsubscribe(query_id)
        assert runtime.engine.query_count == 0

        await subscriber.close()
        await publisher.close()
        await server.stop()
        await runtime.stop()

    run(scenario())


def test_structured_and_protocol_errors_over_tcp():
    async def scenario():
        runtime, server, host, port = await start_stack()
        client = await NdjsonTcpClient.connect(host, port)

        with pytest.raises(UnknownQueryError):
            await client.request({"op": "results", "query_id": 404})

        # A malformed line must produce an error reply, not kill the
        # connection: the next valid request still succeeds.
        await client.send_raw(b"this is not json\n")
        reply = await client.publish(tokens=["coffee"], created_at=1.0)
        assert reply["doc_id"] == 0

        await client.close()
        await server.stop()
        await runtime.stop()

    run(scenario())


def test_subscriber_notified_of_server_shutdown():
    async def scenario():
        runtime, server, host, port = await start_stack()
        client = await NdjsonTcpClient.connect(host, port)
        await client.subscribe(["coffee"])
        await client.publish(tokens=["coffee"], created_at=1.0)
        note = await client.next_message(timeout=5.0)
        assert note["op"] == "notify"
        await runtime.stop()  # drains, then closes every session
        closed = await client.next_message(timeout=5.0)
        assert closed == {"op": "closed", "reason": "shutdown"}
        await client.close()
        await server.stop()

    run(scenario())


def test_disconnecting_client_releases_its_queries():
    async def scenario():
        runtime, server, host, port = await start_stack()
        client = await NdjsonTcpClient.connect(host, port)
        await client.subscribe(["coffee"])
        await client.subscribe(["tea"])
        assert runtime.engine.query_count == 2
        await client.close()  # drop the connection, no unsubscribe calls
        for _ in range(50):  # teardown is asynchronous
            if runtime.engine.query_count == 0:
                break
            await asyncio.sleep(0.05)
        assert runtime.engine.query_count == 0
        assert runtime.stats()["sessions"] == []
        await server.stop()
        await runtime.stop()

    run(scenario())


# -- the connection pipeline (ISSUE 18) ------------------------------------
#
# A connection may carry any number of requests without awaiting replies;
# the server executes them in the order it read them and answers in that
# same order.  These cases write raw bursts so nothing client-side
# serialises them.


async def open_raw(host, port):
    return await asyncio.open_connection(host, port, limit=1 << 20)


async def send_burst(writer, requests):
    """All requests in one write: they reach the server back-to-back."""
    writer.write(b"".join(encode_line(request) for request in requests))
    await writer.drain()


async def read_replies(reader, count, timeout=10.0):
    """The next ``count`` replies in arrival order, plus the pushes that
    arrived in between."""
    replies, pushes = [], []
    while len(replies) < count:
        line = await asyncio.wait_for(reader.readline(), timeout)
        assert line, "connection closed before every reply arrived"
        message = decode_line(line)
        (replies if "ok" in message else pushes).append(message)
    return replies, pushes


async def wait_until(predicate, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.01)


def burst_of(count, first=0):
    return [
        {
            "op": "publish",
            "id": first + index,
            "tokens": [
                "coffee",
                KEYWORD_SETS[index % len(KEYWORD_SETS)][1],
                f"u{index}",
            ],
            "created_at": float(first + index + 1),
        }
        for index in range(count)
    ]


async def stalled_subscriber(runtime):
    """An in-process ``block`` session that never pulls: its second
    notification wedges the matcher until the session is drained."""
    session = runtime.open_session(policy="block", capacity=1)
    await runtime.subscribe(session, ["coffee"])
    return session


def test_pipelined_publishes_batch_group_commit_and_reply_in_order(tmp_path):
    async def scenario():
        runtime, server, host, port = await start_stack(
            eventlog_dir=str(tmp_path / "log"), outbound_capacity=4096
        )
        subscriber = await NdjsonTcpClient.connect(host, port)
        query_ids = [
            (await subscriber.subscribe(keywords))["query_id"]
            for keywords in KEYWORD_SETS
        ]
        before = runtime.stats()
        reader, writer = await open_raw(host, port)
        burst = burst_of(64)
        await send_burst(writer, burst)
        replies, pushes = await read_replies(reader, len(burst))
        after = runtime.stats()
        writer.close()

        # Replies come back in request order, ids and offsets ascending.
        assert pushes == []
        assert [reply["reply_to"] for reply in replies] == list(range(64))
        assert all(reply["ok"] for reply in replies)
        assert [reply["doc_id"] for reply in replies] == list(range(64))
        offsets = [reply["offset"] for reply in replies]
        assert offsets == sorted(set(offsets))

        # Micro-batches formed, and one fsync covered each of them.
        batches = after["batches"]["batches"] - before["batches"]["batches"]
        assert after["batches"]["max_size"] > 1
        assert batches < 64
        fsyncs = after["eventlog"]["fsyncs"] - before["eventlog"]["fsyncs"]
        assert fsyncs == batches

        # The subscriber's stream is the serial replay of the accepted
        # order: batching changed the cost, not the outcome.
        expected = replay_reference(
            query_ids,
            [
                (reply["doc_id"], reply["created_at"], request["tokens"])
                for request, reply in zip(burst, replies)
            ],
        )
        received = [
            triple(await subscriber.next_message(timeout=5.0))
            for _ in expected
        ]
        assert received == expected

        await subscriber.close()
        await server.stop()
        await runtime.stop()

    run(scenario())


def test_pipelined_control_ops_execute_in_the_order_sent():
    requests = [
        {"op": "subscribe", "id": 1, "keywords": ["coffee"]},
        {"op": "publish", "id": 2, "tokens": ["coffee", "a"], "created_at": 2.0},
        {"op": "unsubscribe", "id": 3, "query_id": 0},
        {"op": "publish", "id": 4, "tokens": ["coffee", "b"], "created_at": 3.0},
        {"op": "stats", "id": 5},
    ]

    async def scenario(pipelined):
        runtime, server, host, port = await start_stack()
        seed = await NdjsonTcpClient.connect(host, port)
        await seed.publish(tokens=["coffee", "seed"], created_at=1.0)
        reader, writer = await open_raw(host, port)
        replies, pushes = [], []
        if pipelined:
            await send_burst(writer, requests)
            replies, pushes = await read_replies(reader, len(requests))
        else:
            for request in requests:
                await send_burst(writer, [request])
                reply, pushed = await read_replies(reader, 1)
                replies += reply
                pushes += pushed
        writer.close()
        await seed.close()
        await server.stop()
        await runtime.stop()
        accepted = replies.pop()["stats"]["accepted"]
        return replies, pushes, accepted

    serial = run(scenario(pipelined=False))
    pipelined = run(scenario(pipelined=True))
    assert pipelined == serial
    replies, pushes, accepted = pipelined
    assert [reply["reply_to"] for reply in replies] == [1, 2, 3, 4]
    assert [doc["doc_id"] for doc in replies[0]["initial"]] == [0]
    # Only the publish between subscribe and unsubscribe notified, and
    # the trailing stats (answered in reply order, not on arrival)
    # already counted every publish sent before it.
    assert [triple(push) for push in pushes] == [(0, 1, None)]
    assert accepted == 3


def test_malformed_line_mid_burst_is_answered_in_position():
    async def scenario():
        runtime, server, host, port = await start_stack()
        reader, writer = await open_raw(host, port)
        first, second = burst_of(2)
        writer.write(
            encode_line(first) + b"this is not json\n" + encode_line(second)
        )
        await writer.drain()
        replies, _pushes = await read_replies(reader, 3)
        writer.close()
        await server.stop()
        await runtime.stop()
        return replies

    ok_first, error, ok_second = run(scenario())
    assert (ok_first["ok"], ok_first["doc_id"]) == (True, 0)
    assert error["ok"] is False
    assert error["error"]["type"] == "ProtocolError"
    assert (ok_second["ok"], ok_second["doc_id"]) == (True, 1)


def test_dropped_connection_applies_in_flight_requests_then_retires():
    async def scenario():
        runtime, server, host, port = await start_stack()
        reader, writer = await open_raw(host, port)
        await send_burst(
            writer, [{"op": "subscribe", "id": 0, "keywords": ["coffee"]}]
        )
        await read_replies(reader, 1)
        # Twenty publishes, then EOF, without reading a single reply.
        await send_burst(writer, burst_of(20, first=1))
        writer.write_eof()
        await wait_until(lambda: runtime.stats()["sessions"] == [])
        stats = runtime.stats()
        # Every submitted publish was applied exactly once, and only
        # then did the session's query retire (the retire item queued
        # behind them).
        assert stats["accepted"] == stats["published"] == 20
        assert stats["counters"]["docs_published"] == 20
        assert runtime.engine.query_count == 0
        assert stats["matcher_errors"] == 0
        writer.close()
        await server.stop()
        assert server._connections == set()
        await runtime.stop()
        assert runtime.stats()["failed_on_stop"] == 0

    run(scenario())


def test_subscribe_pipelined_just_before_a_drop_is_still_retired(tmp_path):
    """The close can overtake a subscribe that is still queued: the
    session has no query yet when it closes, and must retire the one the
    subscribe then registers instead of leaking it into the engine."""

    async def scenario():
        runtime, server, host, port = await start_stack(
            eventlog_dir=str(tmp_path / "log")
        )
        _reader, writer = await open_raw(host, port)
        # Subscribe, publishes and EOF in one go, no reply ever read.
        await send_burst(
            writer,
            [{"op": "subscribe", "id": 0, "keywords": ["coffee"]}]
            + burst_of(5, first=1),
        )
        writer.write_eof()
        await wait_until(lambda: runtime.stats()["sessions"] == [])
        stats = runtime.stats()
        assert stats["published"] == 5
        assert runtime.engine.query_count == 0
        assert runtime._owners == {}
        writer.close()

        # Same shape for resume: a subscriber must not end up attached
        # to the session of a connection that is already gone.
        _reader, writer = await open_raw(host, port)
        await send_burst(
            writer,
            burst_of(5, first=10)
            + [{"op": "resume", "id": 0, "subscriber": "ghost"}],
        )
        writer.write_eof()
        await wait_until(lambda: runtime.stats()["sessions"] == [])
        # A barrier: the queued resume has been executed by now.
        await runtime.publish(tokens=["tea"], created_at=99.0)
        connected = [
            entry["connected"]
            for entry in runtime.stats()["subscribers"]["subscribers"]
            if entry["name"] == "ghost"
        ]
        assert not any(connected)
        assert runtime._owners == {}
        writer.close()
        await server.stop()
        await runtime.stop()

    run(scenario())


def test_stop_with_requests_in_flight_leaks_no_unretrieved_failure():
    async def scenario():
        problems = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: problems.append(context)
        )
        runtime, server, host, port = await start_stack(max_batch_size=2)
        await stalled_subscriber(runtime)
        reader, writer = await open_raw(host, port)
        await send_burst(writer, burst_of(12))
        # The matcher is wedged on the stalled session, so part of the
        # burst is in its hands and part still queued when the server
        # goes away.
        await wait_until(lambda: runtime.stats()["ingest_depth"] > 0)
        await server.stop()
        assert server._connections == set()
        await runtime.stop(drain=False)
        stats = runtime.stats()
        assert stats["failed_on_stop"] > 0
        assert stats["sessions"] == []
        writer.close()
        # An orphaned reply future failed by stop() must have been
        # retrieved: nothing is reported when the futures are collected.
        del reader, writer
        gc.collect()
        await asyncio.sleep(0)
        return problems

    assert run(scenario()) == []


def test_torn_reply_frame_mid_burst_ends_the_connection():
    from repro.simulation import FaultPlan

    async def scenario():
        runtime, server, host, port = await start_stack(
            fault_injector=FaultPlan.parse("tcp.write@3:torn").injector()
        )
        reader, writer = await open_raw(host, port)
        await send_burst(writer, burst_of(6))
        replies, _pushes = await read_replies(reader, 2)
        torn = await asyncio.wait_for(reader.read(), 5.0)
        writer.close()
        # The connection is gone, its session retired, the server fine.
        await wait_until(lambda: runtime.stats()["sessions"] == [])
        client = await NdjsonTcpClient.connect(host, port)
        state = (await client.stats())["state"]
        await client.close()
        await server.stop()
        await runtime.stop()
        return replies, torn, state

    replies, torn, state = run(scenario())
    assert [reply["doc_id"] for reply in replies] == [0, 1]
    # Half a frame, then EOF — never a third complete reply.
    assert torn and not torn.endswith(b"\n")
    assert state == "running"


def test_throttled_connection_keeps_order_and_stalls_in_submit():
    async def scenario():
        runtime, server, host, port = await start_stack(
            throttle_rate=50.0, throttle_burst=1
        )
        reader, writer = await open_raw(host, port)
        started = asyncio.get_running_loop().time()
        await send_burst(writer, burst_of(4) + [{"op": "stats", "id": 99}])
        # While the session waits for tokens the reader is suspended in
        # submit: the rest of the burst has not been read, let alone
        # queued, so nothing overtakes it.
        await asyncio.sleep(0.01)
        assert runtime.stats()["accepted"] + runtime.stats()["ingest_depth"] < 4
        replies, _pushes = await read_replies(reader, 5)
        elapsed = asyncio.get_running_loop().time() - started
        writer.close()
        await server.stop()
        await runtime.stop()
        return replies, elapsed

    replies, elapsed = run(scenario())
    assert [reply["reply_to"] for reply in replies] == [0, 1, 2, 3, 99]
    assert [reply["doc_id"] for reply in replies[:4]] == [0, 1, 2, 3]
    throttling = replies[4]["stats"]["throttling"]
    assert throttling["throttled_publishes"] == 3
    assert elapsed >= 3 / 50.0 * 0.9


def test_full_window_stops_the_reader():
    async def scenario():
        runtime, server, host, port = await start_stack(max_batch_size=2)
        session = await stalled_subscriber(runtime)
        reader, writer = await open_raw(host, port)
        await send_burst(writer, burst_of(10))
        await wait_until(lambda: runtime.stats()["ingest_depth"] > 0)
        await asyncio.sleep(0.05)
        stats = runtime.stats()
        # Ten requests sit in the socket, but the server has taken in
        # only what the window allows: the one being answered, two
        # waiting behind it and the one in the reader's hand.
        submitted = stats["accepted"] + stats["ingest_depth"]
        assert submitted <= 2 + 2

        async def pull():
            while await session.next_message() is not None:
                pass

        puller = asyncio.create_task(pull())
        replies, _pushes = await read_replies(reader, 10)
        writer.close()
        await server.stop()
        await runtime.stop()
        await puller
        return replies

    replies = run(scenario())
    assert [reply["doc_id"] for reply in replies] == list(range(10))


def test_durable_subscriber_that_keeps_up_is_never_dead_lettered(tmp_path):
    """Phase-A shape of the served benchmark: 32 publishes in flight, a
    durable subscriber acking every 128 notifications.  One matcher
    batch fans out more notifications than the old 256-entry outbox
    held, so its sizing — not subscriber lag — decided what overflowed."""

    async def scenario():
        runtime, server, host, port = await start_stack(
            # Pure-relevance ranking with a steep decay: every document
            # displaces the oldest result of every query it matches.
            DasEngine.for_method(
                "GIFilter", k=2, block_size=4, backend="python",
                alpha=1.0, decay_base=1.5,
            ),
            eventlog_dir=str(tmp_path / "log"),
            outbound_capacity=4096,
        )
        subscriber = await NdjsonTcpClient.connect(host, port)
        await subscriber.resume("bench", -1)
        for index in range(12):
            await subscriber.subscribe(["coffee", f"q{index}"])
        received = 0
        deepest = 0

        async def consume():
            nonlocal received, deepest
            while True:
                message = await subscriber.next_message()
                if message is None:
                    return
                if message.get("op") != "notify":
                    continue
                received += 1
                if received % 128 == 0:
                    state = runtime.stats()["subscribers"]["subscribers"][0]
                    deepest = max(deepest, state["outbox_depth"])
                    await subscriber.ack()

        consumer = asyncio.create_task(consume())
        reader, writer = await open_raw(host, port)
        burst = burst_of(32 * 6)
        for at in range(0, len(burst), 32):
            await send_burst(writer, burst[at: at + 32])
            await read_replies(reader, 32)
        writer.close()
        stats = runtime.stats()
        await wait_until(
            lambda: received == stats["sessions"][0]["enqueued"]
        )
        consumer.cancel()
        await subscriber.close()
        await server.stop()
        await runtime.stop()
        return stats, received, deepest

    stats, received, deepest = run(scenario())
    state = stats["subscribers"]["subscribers"][0]
    assert received > 12 * 32 * 5  # (nearly) every query took every document
    # One matcher step routed more than the old default could retain,
    # and the subscriber was that far behind without being slow.
    assert stats["batches"]["max_size"] * 12 > 256
    assert 256 < deepest <= stats["subscribers"]["outbox_capacity"]
    assert state["dead_lettered"] == 0
    assert stats["dlq"]["entries"] == 0
    assert stats["policy_drops"]["block"] == 0
