"""Unit tests: protocol encoding/validation, batch formation, sessions."""

from __future__ import annotations

import asyncio

import pytest

from repro.config import ConfigurationError, ServerConfig
from repro.errors import ProtocolError, UnknownQueryError
from repro.metrics.instrumentation import BatchHistogram
from repro.server.protocol import (
    decode_line,
    document_from_payload,
    document_payload,
    encode_line,
    error_reply,
    notification_payload,
    parse_request,
    raise_for_reply,
)
from repro.core.events import Notification
from repro.server.sessions import SubscriberSession
from repro.stream.document import Document


def run(coroutine, timeout=10.0):
    return asyncio.run(asyncio.wait_for(coroutine, timeout))


# -- protocol -------------------------------------------------------------


def test_document_payload_round_trip():
    document = Document.from_tokens(7, ["coffee", "coffee", "beans"], 3.5, "x")
    rebuilt = document_from_payload(document_payload(document))
    assert rebuilt.doc_id == 7
    assert rebuilt.created_at == 3.5
    assert rebuilt.text == "x"
    assert rebuilt.vector == document.vector


def test_ndjson_framing_round_trip():
    payload = notification_payload(
        Notification(3, Document.from_tokens(1, ["a"], 1.0), None)
    )
    assert decode_line(encode_line(payload)) == payload
    assert encode_line(payload).endswith(b"\n")


def test_decode_line_rejects_garbage():
    with pytest.raises(ProtocolError):
        decode_line(b"not json\n")
    with pytest.raises(ProtocolError):
        decode_line(b"[1, 2, 3]\n")


@pytest.mark.parametrize(
    "request_payload",
    [
        "not a dict",
        {"op": "nope"},
        {"op": "subscribe"},
        {"op": "subscribe", "keywords": "coffee"},
        {"op": "unsubscribe"},
        {"op": "results", "query_id": "seven"},
        {"op": "publish"},
        {"op": "publish", "tokens": "coffee"},
        {"op": "publish", "tokens": ["a"], "created_at": "now"},
        {"op": "publish", "tokens": ["a"], "created_at": float("nan")},
        {"op": "publish", "tokens": ["a"], "created_at": float("inf")},
        {"op": "publish", "tokens": ["a"], "created_at": float("-inf")},
        {"op": "publish", "tokens": ["a"], "created_at": True},
        {"op": "publish", "tokens": ["a"], "location": [float("nan"), 0.5]},
        {"op": "subscribe", "keywords": ["a"], "location": [0.5, float("inf")]},
    ],
)
def test_parse_request_rejects_malformed(request_payload):
    with pytest.raises(ProtocolError):
        parse_request(request_payload)


def test_error_reply_carries_repro_type_and_reraises():
    reply = error_reply(UnknownQueryError("query 9"), reply_to=4)
    assert reply == {
        "ok": False,
        "reply_to": 4,
        "error": {"type": "UnknownQueryError", "message": "query 9"},
    }
    with pytest.raises(UnknownQueryError):
        raise_for_reply(reply)
    assert raise_for_reply({"ok": True, "x": 1}) == {"ok": True, "x": 1}


# -- server config --------------------------------------------------------


def test_server_config_validation():
    with pytest.raises(ConfigurationError):
        ServerConfig(ingest_capacity=0)
    with pytest.raises(ConfigurationError):
        ServerConfig(outbound_capacity=0)
    with pytest.raises(ConfigurationError):
        ServerConfig(max_batch_size=0)
    with pytest.raises(ConfigurationError):
        ServerConfig(slow_consumer_policy="yolo")
    with pytest.raises(ConfigurationError):
        ServerConfig(drain_timeout=0.0)
    with pytest.raises(ConfigurationError):
        ServerConfig(port=70000)
    assert ServerConfig().evolve(port=0).port == 0


# -- micro-batch formation ------------------------------------------------


def test_batch_histogram_buckets():
    histogram = BatchHistogram()
    for size in (1, 2, 3, 4, 7, 8, 9, 64):
        histogram.record(size)
    report = histogram.as_dict()
    assert report["batches"] == 8
    assert report["documents"] == 98
    assert report["max_size"] == 64
    assert report["buckets"] == {
        "1": 1, "2": 1, "3-4": 2, "5-8": 2, "9-16": 1, "33-64": 1,
    }
    with pytest.raises(ValueError):
        histogram.record(0)


# -- session primitives ---------------------------------------------------


def test_session_rejects_bad_arguments():
    with pytest.raises(ValueError):
        SubscriberSession(0, capacity=0, policy="block")
    with pytest.raises(ValueError):
        SubscriberSession(0, capacity=4, policy="yolo")


def test_session_delivers_queued_then_closed_then_none():
    async def scenario():
        session = SubscriberSession(0, capacity=4, policy="drop_oldest")
        assert await session.offer({"op": "notify", "n": 1}, query_id=0)
        assert await session.offer({"op": "notify", "n": 2}, query_id=0)
        await session.close("shutdown")
        assert not await session.offer({"op": "notify", "n": 3}, query_id=0)
        first = await session.next_message()
        second = await session.next_message()
        closed = await session.next_message()
        after = await session.next_message()
        return first, second, closed, after

    first, second, closed, after = run(scenario())
    assert (first["n"], second["n"]) == (1, 2)
    assert closed == {"op": "closed", "reason": "shutdown"}
    assert after is None
