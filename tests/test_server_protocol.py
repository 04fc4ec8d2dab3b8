"""Unit tests: protocol encoding/validation, batch formation, sessions."""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ConfigurationError, ServerConfig
from repro.errors import ProtocolError, UnknownQueryError
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


# Terms and texts that exercise JSON escaping: non-ASCII, quotes,
# backslashes, control characters and newlines.
_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\\n\t/ aé☕𝄞'), st.characters()
    ),
    max_size=12,
)
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([1e300, -1e300, 5e-324, -2.5, -0.0, 0.1]),
)


@st.composite
def _document_dicts(draw):
    document = {
        "doc_id": draw(st.integers()),
        "created_at": draw(_FLOATS),
        "tf": draw(
            st.dictionaries(_TEXT, st.integers(1, 9), max_size=4)
        ),
    }
    if draw(st.booleans()):
        document["text"] = draw(_TEXT)
    if draw(st.booleans()):
        document["loc"] = [draw(_FLOATS), draw(_FLOATS)]
    return document


@st.composite
def _frame_batches(draw):
    """Frames a writer may get in one pull, sharing document dicts."""
    pool = draw(st.lists(_document_dicts(), min_size=1, max_size=3))
    shared = st.sampled_from(pool)
    frames = []
    for kind in draw(
        st.lists(
            st.sampled_from(
                ["notify", "reordered", "extra", "reply", "snapshot", "closed"]
            ),
            max_size=8,
        )
    ):
        if kind == "reply":
            frames.append({"ok": True, "reply_to": draw(st.integers()),
                           "doc_id": draw(st.integers())})
        elif kind == "snapshot":
            frames.append({
                "op": "snapshot",
                "query_id": draw(st.integers()),
                "results": draw(st.lists(shared, max_size=3)),
                "coalesced": draw(st.integers(0, 5)),
            })
        elif kind == "closed":
            frames.append({"op": "closed", "reason": draw(_TEXT)})
        else:
            frame = {
                "op": "notify",
                "query_id": draw(st.integers()),
                "document": draw(shared),
                "replaced": draw(st.one_of(st.none(), shared)),
            }
            if draw(st.booleans()):
                frame["offset"] = draw(st.integers())
            if kind == "reordered":
                frame = dict(reversed(list(frame.items())))
            elif kind == "extra":
                frame["coalesced"] = draw(st.integers(0, 5))
            frames.append(frame)
    return frames


@settings(max_examples=200, deadline=None)
@given(_frame_batches())
def test_memo_encoding_is_byte_identical_to_json_dumps(batch):
    memo = {}
    composed = b"".join(encode_line(payload, memo) for payload in batch)
    plain = b"".join(
        (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")
        for payload in batch
    )
    assert composed == plain
    assert b"".join(encode_line(payload) for payload in batch) == plain
    # Only a notify frame with notification_payload's exact keys is
    # composed; a reordered one or one with an extra key is dumped whole
    # and leaves nothing in the memo.
    for payload in batch:
        fresh = {}
        encode_line(payload, fresh)
        keys = tuple(payload)
        composable = payload.get("op") == "notify" and keys in (
            ("op", "query_id", "document", "replaced"),
            ("op", "query_id", "document", "replaced", "offset"),
        )
        assert bool(fresh) == composable


def test_memo_encodes_a_shared_document_once():
    document = Document.from_tokens(1, ["a"], 1.0)
    replaced = Document.from_tokens(0, ["a"], 0.5)
    documents = {}
    batch = [
        notification_payload(
            Notification(query_id, document, replaced), 9, documents
        )
        for query_id in range(3)
    ]
    shared, evicted = documents[1], documents[0]
    assert shared == document_payload(document)
    assert evicted == document_payload(replaced)
    assert all(payload["document"] is shared for payload in batch)
    assert all(payload["replaced"] is evicted for payload in batch)
    memo = {}
    lines = [encode_line(payload, memo) for payload in batch]
    assert sorted(memo) == sorted([id(shared), id(evicted)])
    assert lines == [encode_line(payload) for payload in batch]


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


@pytest.mark.parametrize(
    "request_payload",
    [
        # A term the engine cannot take: refused here, before the request
        # is queued or logged (it would fail after its record was written).
        {"op": "subscribe", "keywords": ["a", 5]},
        {"op": "subscribe", "keywords": [5]},
        {"op": "subscribe", "keywords": ["a", ""]},
        {"op": "subscribe", "keywords": [None]},
        {"op": "subscribe", "text": 5},
        {"op": "subscribe", "text": ["a"]},
        {"op": "publish", "tokens": [7, "y"]},
        {"op": "publish", "tokens": ["y", ""]},
        {"op": "publish", "text": {"a": 1}},
        # ``true`` is an int to Python; it must not name query 1.
        {"op": "results", "query_id": True},
        {"op": "unsubscribe", "query_id": False},
    ],
)
def test_parse_request_rejects_what_the_engine_cannot_take(request_payload):
    with pytest.raises(ProtocolError):
        parse_request(request_payload)


def test_parse_request_accepts_well_formed_terms():
    for payload in (
        {"op": "subscribe", "keywords": ["a", "b"]},
        {"op": "subscribe", "text": "coffee beans"},
        {"op": "publish", "tokens": ["a"], "text": "a b"},
        {"op": "results", "query_id": 0},
    ):
        assert parse_request(payload) is payload


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
        # One message per call: the second stays queued.
        assert (session.depth, session.pulls) == (1, 1)
        second = await session.next_message()
        closed = await session.next_message()
        after = await session.next_message()
        return first, second, closed, after

    first, second, closed, after = run(scenario())
    assert (first["n"], second["n"]) == (1, 2)
    assert closed == {"op": "closed", "reason": "shutdown"}
    assert after is None


def test_one_pull_takes_every_queued_message_in_order():
    async def scenario():
        session = SubscriberSession(0, capacity=8, policy="drop_oldest")
        for n in range(5):
            assert await session.offer({"op": "notify", "n": n}, query_id=n)
        messages = await session.next_messages()
        return session, messages

    session, messages = run(scenario())
    assert [message["n"] for message in messages] == [0, 1, 2, 3, 4]
    assert session.delivered == 5
    assert session.depth == 0
    # One pull of several messages counts once: delivered / pulls is
    # the transport's frames per write.
    assert session.pulls == 1
    assert session.as_dict()["pulls"] == 1


def test_pull_clears_coalesce_pending_so_a_later_offer_enqueues_anew():
    async def scenario():
        session = SubscriberSession(0, capacity=8, policy="coalesce")
        await session.offer({"op": "snapshot", "v": 1}, query_id=7)
        await session.offer({"op": "snapshot", "v": 2}, query_id=7)
        await session.offer({"op": "snapshot", "v": 1}, query_id=8)
        pulled = await session.next_messages()
        pending_after_pull = dict(session._pending)
        await session.offer({"op": "snapshot", "v": 3}, query_id=7)
        again = await session.next_messages()
        return session, pulled, pending_after_pull, again

    session, pulled, pending_after_pull, again = run(scenario())
    assert [(m["v"], m.get("coalesced", 0)) for m in pulled] == [
        (2, 1), (1, 0),
    ]
    assert pending_after_pull == {}
    assert again == [{"op": "snapshot", "v": 3}]
    assert (session.enqueued, session.coalesced) == (3, 1)
    assert (session.delivered, session.pulls) == (3, 2)


def test_blocked_offer_resumes_after_one_pull():
    async def scenario():
        session = SubscriberSession(0, capacity=2, policy="block")
        for n in range(2):
            await session.offer({"op": "notify", "n": n}, query_id=n)
        blocked = asyncio.ensure_future(
            session.offer({"op": "notify", "n": 2}, query_id=2)
        )
        for _ in range(3):
            await asyncio.sleep(0)
        suspended = not blocked.done()
        pulled = await session.next_messages()
        offered = await asyncio.wait_for(blocked, 1.0)
        rest = await session.next_messages()
        return suspended, pulled, offered, rest

    suspended, pulled, offered, rest = run(scenario())
    assert suspended
    assert [message["n"] for message in pulled] == [0, 1]
    assert offered is True
    assert [message["n"] for message in rest] == [2]


def test_pulls_after_close_give_the_rest_then_one_closed_then_nothing():
    async def scenario():
        session = SubscriberSession(0, capacity=4, policy="block")
        for n in range(3):
            await session.offer({"op": "notify", "n": n}, query_id=0)
        await session.close("shutdown")
        return [await session.next_messages() for _ in range(4)]

    rest, closed, after, again = run(scenario())
    assert [message["n"] for message in rest] == [0, 1, 2]
    assert closed == [{"op": "closed", "reason": "shutdown"}]
    assert after == [] and again == []
