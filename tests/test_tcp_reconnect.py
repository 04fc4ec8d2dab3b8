"""Client reconnect/resubscribe and half-closed-socket containment.

ISSUE 7 satellites S1/S2: a reconnecting :class:`NdjsonTcpClient`
survives transport drops (bounded exponential backoff + jitter,
automatic resubscription, ``reconnects`` accounting), and the server
side contains half-closed/aborted sockets — a dead peer costs one
retired session, never a crashed task or a wedged push loop.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.config import ServerConfig
from repro.core.engine import DasEngine
from repro.server import (
    InProcessClient,
    NdjsonTcpClient,
    NdjsonTcpServer,
    ServerRuntime,
)


def run(coroutine, timeout=30.0):
    return asyncio.run(asyncio.wait_for(coroutine, timeout))


async def start_stack(**config_overrides):
    defaults = dict(outbound_capacity=256, drain_timeout=5.0, port=0)
    defaults.update(config_overrides)
    runtime = ServerRuntime(
        DasEngine.for_method("GIFilter", k=3, block_size=4),
        ServerConfig(**defaults),
    )
    await runtime.start()
    server = NdjsonTcpServer(runtime)
    host, port = await server.start()
    return runtime, server, host, port


async def wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        if predicate():
            return
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


# -- satellite S1: client reconnect --------------------------------------


def test_client_reconnects_and_resubscribes():
    async def scenario():
        runtime, server, host, port = await start_stack()
        client = await NdjsonTcpClient.connect(
            host, port, reconnect=True, backoff_base=0.01
        )
        try:
            reply = await client.subscribe(["coffee"])
            old_id = reply["query_id"]

            client.abort_connection()
            await wait_for(
                lambda: client.connection_stats()["reconnects"] >= 1
                and client.connection_stats()["resubscribed"] >= 1
            )
            stats = client.connection_stats()
            assert stats["connected"] is True
            assert stats["closed"] is False
            new_id = stats["resubscriptions"][old_id]

            # The resubscribed query is live: a publish notifies it.
            publisher = await NdjsonTcpClient.connect(host, port)
            await publisher.publish(tokens=["coffee"], created_at=1.0)
            note = await client.next_message(timeout=10.0)
            assert note["op"] == "notify"
            assert note["query_id"] == new_id
            await publisher.close()
        finally:
            await client.close()
            await server.stop()
            await runtime.stop()

    run(scenario())


def test_resubscribe_keeps_subscriptions_whose_ids_the_new_server_reuses():
    """The client holds ids {0, 3}; the restarted server on the same port
    hands out 3 and 4.  Both subscriptions are tracked under their new
    ids, not one of them overwritten by the other's re-issue."""

    async def scenario():
        runtime, server, host, port = await start_stack()
        client = await NdjsonTcpClient.connect(
            host, port, reconnect=True, backoff_base=0.01
        )
        try:
            for word in ("coffee", "tea", "milk", "beans"):
                await client.subscribe([word])
            await client.unsubscribe(1)
            await client.unsubscribe(2)
            # The replacement has already given out ids 0, 1 and 2.
            replacement = ServerRuntime(
                DasEngine.for_method("GIFilter", k=3, block_size=4),
                ServerConfig(outbound_capacity=256, port=port),
            )
            await replacement.start()
            filler = InProcessClient(replacement)
            for word in ("x", "y", "z"):
                await filler.subscribe([word])
            await server.stop()
            await runtime.stop()
            runtime, server = replacement, NdjsonTcpServer(replacement)
            await server.start()
            await wait_for(
                lambda: client.connection_stats()["resubscribed"] >= 2
            )
            assert client.connection_stats()["resubscriptions"] == {
                0: 3,
                3: 4,
            }
            assert {
                query_id: payload["keywords"]
                for query_id, payload in client._subscriptions.items()
            } == {3: ["coffee"], 4: ["beans"]}
        finally:
            await client.close()
            await server.stop()
            await runtime.stop()

    run(scenario())


def test_requests_wait_out_a_transport_blip():
    async def scenario():
        runtime, server, host, port = await start_stack()
        client = await NdjsonTcpClient.connect(
            host, port, reconnect=True, backoff_base=0.01
        )
        try:
            client.abort_connection()
            # Issued while disconnected: parks on the connected event
            # and completes after the dial-out, instead of failing.
            stats = await asyncio.wait_for(client.stats(), 10.0)
            assert stats["state"] == "running"
            assert client.connection_stats()["reconnects"] >= 1
        finally:
            await client.close()
            await server.stop()
            await runtime.stop()

    run(scenario())


def test_reconnect_gives_up_after_max_retries():
    async def scenario():
        runtime, server, host, port = await start_stack()
        client = await NdjsonTcpClient.connect(
            host,
            port,
            reconnect=True,
            backoff_base=0.005,
            backoff_max=0.01,
            max_retries=2,
        )
        try:
            # Nothing is listening any more: every dial-out fails.
            await server.stop()
            client.abort_connection()
            await wait_for(lambda: client.connection_stats()["closed"])
            with pytest.raises(ConnectionError):
                await client.stats()
        finally:
            await client.close()
            await runtime.stop()

    run(scenario())


def test_plain_client_stays_dead_after_disconnect():
    async def scenario():
        runtime, server, host, port = await start_stack()
        client = await NdjsonTcpClient.connect(host, port)  # no reconnect
        try:
            client.abort_connection()
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(client.stats(), 5.0)
            assert client.connection_stats()["reconnects"] == 0
        finally:
            await client.close()
            await server.stop()
            await runtime.stop()

    run(scenario())


# -- durable resume across reconnect -------------------------------------


def test_durable_resume_replays_outage_notifications(tmp_path):
    """Regression: a reconnecting client used to resubscribe from
    scratch, silently dropping every notification produced during the
    outage.  With the event log, the client resumes its durable
    subscriber identity instead: missed notifications are replayed on
    the SAME query id, exactly once."""

    async def scenario():
        runtime, server, host, port = await start_stack(
            eventlog_dir=str(tmp_path / "eventlog"),
            eventlog_fsync="always",
        )
        client = await NdjsonTcpClient.connect(
            host, port, reconnect=True, backoff_base=0.01
        )
        publisher = await NdjsonTcpClient.connect(host, port)
        try:
            await client.resume("alice", -1)
            query_id = (await client.subscribe(["coffee"]))["query_id"]

            before = await publisher.publish(
                tokens=["coffee"], created_at=1.0
            )
            note = await client.next_message(timeout=10.0)
            assert note["op"] == "notify"
            assert note["offset"] == before["offset"]
            await client.ack(note["offset"])

            client.abort_connection()
            missed = [
                await publisher.publish(tokens=["coffee", "x"], created_at=2.0),
                await publisher.publish(tokens=["coffee", "y"], created_at=3.0),
            ]
            await wait_for(
                lambda: client.connection_stats()["reconnects"] >= 1
                and client.connection_stats()["resumed"] >= 2
            )
            # Durable queries ride resume, not lossy resubscription.
            assert client.connection_stats()["resubscribed"] == 0

            received = {}
            while len(received) < len(missed):
                note = await client.next_message(timeout=10.0)
                assert note["op"] == "notify"
                assert note["query_id"] == query_id
                assert note["offset"] not in received  # exactly once
                received[note["offset"]] = note
            assert set(received) == {ack["offset"] for ack in missed}
            with pytest.raises(asyncio.TimeoutError):
                await client.next_message(timeout=0.3)

            # The resumed subscription is still live post-reconnect.
            after = await publisher.publish(
                tokens=["coffee", "z"], created_at=4.0
            )
            note = await client.next_message(timeout=10.0)
            assert note["query_id"] == query_id
            assert note["offset"] == after["offset"]
        finally:
            await publisher.close()
            await client.close()
            await server.stop()
            await runtime.stop()

    run(scenario())


# -- satellite S2: server-side containment -------------------------------


def test_half_closed_socket_retires_session_and_frees_queries():
    async def scenario():
        runtime, server, host, port = await start_stack()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b'{"op": "subscribe", "keywords": ["w"], "id": 1}\n'
            )
            await writer.drain()
            assert await asyncio.wait_for(reader.readline(), 5.0)
            assert runtime.engine.query_count == 1

            # Half-close: EOF on the server's read side while our read
            # side stays open.  The session must retire and release its
            # queries rather than linger as a push target.
            writer.write_eof()
            await wait_for(lambda: runtime.engine.query_count == 0)
            writer.close()

            # The server still serves fresh connections.
            client = await NdjsonTcpClient.connect(host, port)
            assert (await client.stats())["state"] == "running"
            await client.close()
        finally:
            await server.stop()
            await runtime.stop()

    run(scenario())


def test_aborted_subscriber_does_not_wedge_the_push_loop():
    async def scenario():
        runtime, server, host, port = await start_stack()
        try:
            subscriber = await NdjsonTcpClient.connect(host, port)
            await subscriber.subscribe(["coffee"])
            # RST the subscriber's transport without a clean shutdown:
            # the next pushed frame hits a dead socket.
            subscriber._writer.transport.abort()

            publisher = await NdjsonTcpClient.connect(host, port)
            for created_at in (1.0, 2.0, 3.0):
                await publisher.publish(
                    tokens=["coffee"], created_at=created_at
                )
            # Write failures retire the dead session; the publisher's
            # session and the runtime stay healthy.
            await wait_for(lambda: runtime.engine.query_count == 0)
            assert (await publisher.stats())["accepted"] == 3
            await publisher.close()
            await subscriber.close()
        finally:
            await server.stop()
            await runtime.stop()

    run(scenario())
