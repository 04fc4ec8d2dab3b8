"""Malformed-input fuzzing of the NDJSON TCP transport (ISSUE 3, S3).

The contract under attack: any byte sequence a client sends produces
either a structured ``{"ok": false, "error": ...}`` reply or a clean
connection close — never a crashed connection task, never a wedged
server.  After every malformed line the connection (or a fresh one)
must still serve valid requests.
"""

from __future__ import annotations

import asyncio
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig, ServerConfig
from repro.core.engine import DasEngine
from repro.errors import ProtocolError
from repro.server import NdjsonTcpClient, NdjsonTcpServer, ServerRuntime
from repro.server.protocol import decode_line, error_reply, parse_request
from repro.server.tcp import MAX_LINE_BYTES


def run(coroutine, timeout=30.0):
    return asyncio.run(asyncio.wait_for(coroutine, timeout))


async def start_stack():
    runtime = ServerRuntime(
        DasEngine.for_method("GIFilter", k=3, block_size=4),
        ServerConfig(outbound_capacity=256, drain_timeout=5.0, port=0),
    )
    await runtime.start()
    server = NdjsonTcpServer(runtime)
    host, port = await server.start()
    return runtime, server, host, port


async def raw_exchange(host, port, lines):
    """Send raw lines on one connection; collect replies until EOF."""
    reader, writer = await asyncio.open_connection(
        host, port, limit=MAX_LINE_BYTES
    )
    replies = []
    try:
        for line in lines:
            writer.write(line)
            await writer.drain()
            reply = await asyncio.wait_for(reader.readline(), 5.0)
            if not reply:
                break
            replies.append(json.loads(reply))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return replies


MALFORMED_LINES = [
    b'{"op": "sub\n',  # truncated JSON
    b"[1, 2, 3]\n",  # valid JSON, not an object
    b"null\n",
    b'"just a string"\n',
    b"\xff\xfe\xfd\n",  # invalid UTF-8
    b'{"op": "fly"}\n',  # unknown op
    b'{"no_op_at_all": true}\n',
    b'{"op": "subscribe"}\n',  # missing keywords/text
    b'{"op": "unsubscribe", "query_id": "xyz"}\n',
    b'{"op": "results", "query_id": 424242}\n',  # unknown query
    b'{"op": "publish"}\n',  # nothing to publish
]


def test_malformed_lines_get_structured_error_replies():
    async def scenario():
        runtime, server, host, port = await start_stack()
        try:
            replies = await raw_exchange(host, port, MALFORMED_LINES)
            assert len(replies) == len(MALFORMED_LINES)
            for reply in replies:
                assert reply["ok"] is False
                assert "type" in reply["error"]
                assert "message" in reply["error"]
            # The same connection pattern still serves valid requests.
            good = await raw_exchange(
                host, port, [b'{"op": "stats", "id": 1}\n']
            )
            assert good[0]["ok"] is True
            assert good[0]["reply_to"] == 1
        finally:
            await server.stop()
            await runtime.stop()

    run(scenario())


def test_oversized_line_closes_connection_but_not_server():
    async def scenario():
        runtime, server, host, port = await start_stack()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"pad": "' + b"x" * (MAX_LINE_BYTES + 1024))
            writer.write(b'"}\n')
            await writer.drain()
            # The server drops the connection instead of buffering forever.
            assert await asyncio.wait_for(reader.read(), 10.0) == b""
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            # A fresh connection is served normally.
            client = await NdjsonTcpClient.connect(host, port)
            assert (await client.stats())["state"] == "running"
            await client.close()
        finally:
            await server.stop()
            await runtime.stop()

    run(scenario())


def test_seeded_garbage_stream_never_wedges_the_connection():
    rng = random.Random(1337)
    garbage = []
    for _ in range(40):
        length = rng.randint(1, 60)
        line = bytes(rng.randrange(256) for _ in range(length))
        # Keep it one frame: newlines would split into multiple lines.
        garbage.append(line.replace(b"\n", b"?").replace(b"\r", b"?") + b"\n")

    async def scenario():
        runtime, server, host, port = await start_stack()
        try:
            reader, writer = await asyncio.open_connection(
                host, port, limit=MAX_LINE_BYTES
            )
            for line in garbage:
                writer.write(line)
                await writer.drain()
                reply = await asyncio.wait_for(reader.readline(), 5.0)
                assert reply, "connection died on garbage input"
                payload = json.loads(reply)
                assert payload["ok"] is False
            # Still a perfectly good session afterwards.
            writer.write(b'{"op": "subscribe", "keywords": ["w"], "id": 9}\n')
            await writer.drain()
            reply = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
            assert reply["ok"] is True and reply["reply_to"] == 9
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        finally:
            await server.stop()
            await runtime.stop()

    run(scenario())


#: Frames of the ops the removed cluster tier spoke — one well-formed in
#: its old schema, one not, per op.  They are unknown ops now.
REMOVED_OP_LINES = [
    b'{"op": "replicate", "offset": 0, "entries": '
    b'[["subscribe", 5, ["w"]]], "notify": true}\n',
    b'{"op": "replicate"}\n',
    b'{"op": "handoff", "checkpoint": {"version": 1}, "offset": 0}\n',
    b'{"op": "handoff"}\n',
    b'{"op": "cluster_stats", "checkpoint": true}\n',
    b'{"op": "cluster_stats"}\n',
]


def test_malformed_cluster_ops_get_structured_error_replies(tmp_path):
    """On a durable server, ``replicate``/``handoff``/``cluster_stats``
    get the structured reply of any unknown op; nothing reaches the
    engine or the event log, and the connection keeps serving."""

    def unknown_op_error(op):
        try:
            parse_request({"op": op})
        except ProtocolError as exc:
            return error_reply(exc)["error"]
        raise AssertionError(f"{op!r} is still a known op")

    async def scenario():
        runtime = ServerRuntime(
            DasEngine.for_method("GIFilter", k=3, block_size=4),
            ServerConfig(eventlog_dir=str(tmp_path), port=0),
        )
        await runtime.start()
        server = NdjsonTcpServer(runtime)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES
        )

        async def request(line):
            writer.write(line)
            await writer.drain()
            while True:
                reply = await asyncio.wait_for(reader.readline(), 5.0)
                assert reply, "connection died mid-exchange"
                payload = json.loads(reply)
                if "ok" in payload:  # skip pushed notifications
                    return payload

        def engine_state():
            stats = runtime.stats()
            return stats["counters"], stats["eventlog"]["end"]

        try:
            first = await request(b'{"op": "subscribe", "keywords": ["w"]}\n')
            await request(b'{"op": "publish", "tokens": ["w"]}\n')
            before = engine_state()
            for line in REMOVED_OP_LINES:
                reply = await request(line)
                op = json.loads(line)["op"]
                assert reply == {"ok": False, "error": unknown_op_error(op)}
            assert engine_state() == before
            second = await request(b'{"op": "subscribe", "keywords": ["w"]}\n')
            published = await request(b'{"op": "publish", "tokens": ["w"]}\n')
            assert (first["query_id"], second["query_id"]) == (0, 1)
            assert published["ok"] is True and published["doc_id"] == 1
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            await server.stop()
            await runtime.stop()

    run(scenario())


#: Malformed strategy-option frames (ISSUE 10, S3): bad ``window`` and
#: ``location`` subscribe/publish options must produce structured error
#: replies — never a wedged matcher, never a half-registered query.
STRATEGY_MALFORMED_LINES = [
    b'{"op": "subscribe", "keywords": ["w"], "window": "5"}\n',
    b'{"op": "subscribe", "keywords": ["w"], "window": true}\n',
    b'{"op": "subscribe", "keywords": ["w"], "window": 0}\n',
    b'{"op": "subscribe", "keywords": ["w"], "window": -3}\n',
    b'{"op": "subscribe", "keywords": ["w"], "window": 1.5}\n',
    b'{"op": "subscribe", "keywords": ["w"], "location": "here"}\n',
    b'{"op": "subscribe", "keywords": ["w"], "location": 5}\n',
    b'{"op": "subscribe", "keywords": ["w"], "location": [0.5]}\n',
    b'{"op": "subscribe", "keywords": ["w"], "location": [0.1, 0.2, 0.3]}\n',
    b'{"op": "subscribe", "keywords": ["w"], "location": ["a", "b"]}\n',
    b'{"op": "subscribe", "keywords": ["w"], "location": [true, false]}\n',
    b'{"op": "subscribe", "keywords": ["w"], "location": {"x": 1}}\n',
    b'{"op": "publish", "tokens": ["w"], "location": [1]}\n',
    b'{"op": "publish", "tokens": ["w"], "location": ["x", "y"]}\n',
    b'{"op": "publish", "tokens": ["w"], "location": "0.5,0.5"}\n',
]


async def reply_exchange(host, port, lines):
    """Like :func:`raw_exchange` but skips server-pushed notification
    frames (no ``ok`` key), returning only the request replies."""
    reader, writer = await asyncio.open_connection(
        host, port, limit=MAX_LINE_BYTES
    )
    replies = []
    try:
        for line in lines:
            writer.write(line)
            await writer.drain()
            while True:
                reply = await asyncio.wait_for(reader.readline(), 5.0)
                assert reply, "connection died mid-exchange"
                payload = json.loads(reply)
                if "ok" in payload:
                    replies.append(payload)
                    break
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return replies


async def start_mode_stack(mode):
    config = EngineConfig(
        k=3,
        block_size=4,
        mode=mode,
        window_size=8,
        spatial_cells=3,
    )
    runtime = ServerRuntime(
        DasEngine(config),
        ServerConfig(outbound_capacity=256, drain_timeout=5.0, port=0),
    )
    await runtime.start()
    server = NdjsonTcpServer(runtime)
    host, port = await server.start()
    return runtime, server, host, port


@pytest.mark.parametrize("mode", ["decay", "window", "spatial"])
def test_malformed_strategy_options_get_structured_errors(mode):
    """Bad window/location options are rejected with structured errors in
    every engine mode, and the matcher keeps serving afterwards."""

    async def scenario():
        runtime, server, host, port = await start_mode_stack(mode)
        try:
            replies = await raw_exchange(host, port, STRATEGY_MALFORMED_LINES)
            assert len(replies) == len(STRATEGY_MALFORMED_LINES)
            for line, reply in zip(STRATEGY_MALFORMED_LINES, replies):
                assert reply["ok"] is False, line
                assert "type" in reply["error"], line
                assert "message" in reply["error"], line
            # None of the rejected subscribes half-registered a query and
            # a well-formed subscribe (with mode-appropriate options)
            # still lands and matches.
            subscribe = {"op": "subscribe", "keywords": ["w"], "id": 1}
            if mode == "spatial":
                subscribe["location"] = [0.5, 0.5]
            elif mode == "window":
                subscribe["window"] = 4
            good = await reply_exchange(
                host,
                port,
                [
                    json.dumps(subscribe).encode() + b"\n",
                    b'{"op": "publish", "tokens": ["w"], '
                    b'"location": [0.5, 0.5], "id": 2}\n',
                    b'{"op": "results", "query_id": 0, "id": 3}\n',
                    b'{"op": "stats", "id": 4}\n',
                ],
            )
            assert [reply["ok"] for reply in good] == [True] * 4
            # The rejected subscribes never half-registered: the first
            # valid subscribe gets the server's first query id, 0.
            assert good[0]["query_id"] == 0
            assert [d["doc_id"] for d in good[2]["results"]] == [0]
            assert good[3]["stats"]["counters"]["queries_subscribed"] == 1
        finally:
            await server.stop()
            await runtime.stop()

    run(scenario())


def test_spatial_semantic_errors_are_structured_not_fatal():
    """Options that pass the wire-shape check but violate the spatial
    strategy's semantics (missing or out-of-range location) come back as
    structured errors, and the server keeps running."""

    async def scenario():
        runtime, server, host, port = await start_mode_stack("spatial")
        try:
            replies = await raw_exchange(
                host,
                port,
                [
                    b'{"op": "subscribe", "keywords": ["w"], "id": 1}\n',
                    b'{"op": "subscribe", "keywords": ["w"], '
                    b'"location": [1.5, 0.5], "id": 2}\n',
                    b'{"op": "subscribe", "keywords": ["w"], '
                    b'"location": [-0.1, 0.2], "id": 3}\n',
                ],
            )
            assert [reply["ok"] for reply in replies] == [False] * 3
            for reply in replies:
                assert "message" in reply["error"]
            good = await raw_exchange(
                host,
                port,
                [
                    b'{"op": "subscribe", "keywords": ["w"], '
                    b'"location": [0.25, 0.75], "id": 9}\n',
                    b'{"op": "stats", "id": 10}\n',
                ],
            )
            assert [reply["ok"] for reply in good] == [True, True]
            assert good[1]["stats"]["counters"]["queries_subscribed"] == 1
        finally:
            await server.stop()
            await runtime.stop()

    run(scenario())


@settings(max_examples=200, deadline=None)
@given(data=st.binary(min_size=0, max_size=200))
def test_decode_line_is_total(data):
    """decode_line either returns a dict or raises ProtocolError — no
    other exception type ever escapes the framing layer."""
    line = data.replace(b"\n", b" ")
    try:
        payload = decode_line(line)
    except ProtocolError:
        return
    assert isinstance(payload, dict)


@settings(max_examples=100, deadline=None)
@given(payload=st.text(max_size=100))
def test_decode_line_handles_arbitrary_json_strings(payload):
    line = json.dumps(payload).encode("utf-8")
    try:
        decoded = decode_line(line)
    except ProtocolError:
        return  # a bare string is not an object: rejected, not crashed
    assert isinstance(decoded, dict)
