"""Session protocol shared by the in-process and NDJSON TCP transports.

Every message — request, reply, or server push — is one JSON object; on
the TCP transport each object is one ``\\n``-terminated line (NDJSON).
The in-process transport exchanges the *same* dict shapes without the
serialisation round-trip.  Both clients inherit their op methods from
:class:`ProtocolClient` below and the server answers both through
``ServerRuntime.submit_request`` / ``complete_request``, so a client
tested in-process sends the same requests and gets the same replies over
the wire.

Requests carry an ``op`` plus op-specific fields and an optional client
``id`` echoed back as ``reply_to``:

====================  =====================================================
op                    fields
====================  =====================================================
``subscribe``         ``keywords`` (list of terms) or ``text`` (tokenised);
                      optional ``location`` [x, y], ``window``
``unsubscribe``       ``query_id``
``publish``           ``tokens`` (list) or ``text``; optional
                      ``created_at``, ``location`` [x, y]
``results``           ``query_id``
``stats``             —
``metrics``           — (reply carries Prometheus exposition text)
``resume``            ``subscriber`` (durable name); optional ``offset``
``ack``               ``offset`` (delivery confirmed up to it)
``dlq``               optional ``limit`` (newest N dead-letter entries)
====================  =====================================================

``resume``/``ack``/``dlq`` are the durability tier (DESIGN.md §14,
requires the server to run with an event log): ``resume`` attaches the
connection to a durable subscriber identity and replays every retained
notification above the given offset (same query ids as before the
outage), ``ack`` confirms delivery up to an offset so the server can
trim the retained outbox, and ``dlq`` inspects the dead-letter queue.
When the event log is enabled, every pushed ``notify`` payload carries
the global ``offset`` of the publish that produced it — the value a
client hands back to ``resume``/``ack``.

Replies are ``{"ok": true, "reply_to": ..., ...}`` on success and
``{"ok": false, "reply_to": ..., "error": {"type", "message"}}`` on
failure, where ``type`` is the :mod:`repro.errors` class name so clients
can re-raise structured errors.  Server pushes are ``{"op": "notify"}``
(one result-set change), ``{"op": "snapshot"}`` (a coalesced result-set
snapshot) and ``{"op": "closed"}`` (the session ended).
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence

import repro.errors as errors
from repro.core.events import Notification
from repro.errors import ProtocolError, ReproError
from repro.stream.document import Document

#: Request operations understood by the serving runtime.
REQUEST_OPS = (
    "subscribe",
    "unsubscribe",
    "publish",
    "results",
    "stats",
    "metrics",
    "resume",
    "ack",
    "dlq",
)

#: repro error-class name -> class, for structured client-side re-raising.
ERROR_TYPES: Dict[str, type] = {
    name: obj
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, ReproError)
}


# -- payload builders (server -> client) ---------------------------------


def document_payload(document: Document) -> Dict[str, Any]:
    """Wire form of a document: id, timestamp, tf map, optional text."""
    payload: Dict[str, Any] = {
        "doc_id": document.doc_id,
        "created_at": document.created_at,
        "tf": dict(document.vector.items()),
    }
    if document.text is not None:
        payload["text"] = document.text
    if document.location is not None:
        payload["loc"] = list(document.location)
    return payload


def document_from_payload(payload: Dict[str, Any]) -> Document:
    """Rebuild a :class:`Document` from :func:`document_payload` output."""
    from repro.text.vectors import TermVector

    return Document(
        int(payload["doc_id"]),
        TermVector(payload["tf"]),
        float(payload["created_at"]),
        payload.get("text"),
        payload.get("loc"),
    )


def notification_payload(
    notification: Notification,
    offset: Optional[int] = None,
    documents: Optional[Dict[int, Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """One result-set change; ``offset`` is the event-log offset of the
    publish that produced it (present only when the log is enabled).

    ``documents`` maps doc id -> :func:`document_payload`, for callers
    fanning one batch out to many queries: a document's payload is taken
    from it (built and added when missing), so it is built once and
    shared, not copied."""
    documents = {} if documents is None else documents
    replaced = notification.replaced
    payload = {
        "op": "notify",
        "query_id": notification.query_id,
        "document": _shared_payload(notification.document, documents),
        "replaced": (
            None if replaced is None else _shared_payload(replaced, documents)
        ),
    }
    if offset is not None:
        payload["offset"] = int(offset)
    return payload


def _shared_payload(document: Document, documents: Dict) -> Dict[str, Any]:
    payload = documents.get(document.doc_id)
    if payload is None:
        payload = documents[document.doc_id] = document_payload(document)
    return payload


def snapshot_payload(
    query_id: int, documents: List[Document], coalesced: int = 0
) -> Dict[str, Any]:
    """A coalesced delivery: the query's full current result set."""
    return {
        "op": "snapshot",
        "query_id": query_id,
        "results": [document_payload(document) for document in documents],
        "coalesced": coalesced,
    }


def closed_payload(reason: str) -> Dict[str, Any]:
    return {"op": "closed", "reason": reason}


def ok_reply(reply_to: Optional[Any] = None, **fields: Any) -> Dict[str, Any]:
    reply: Dict[str, Any] = {"ok": True}
    if reply_to is not None:
        reply["reply_to"] = reply_to
    reply.update(fields)
    return reply


def error_reply(
    exc: BaseException, reply_to: Optional[Any] = None
) -> Dict[str, Any]:
    """Structured error reply; ``type`` names the repro error class."""
    reply: Dict[str, Any] = {
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    if reply_to is not None:
        reply["reply_to"] = reply_to
    return reply


def raise_for_reply(reply: Dict[str, Any]) -> Dict[str, Any]:
    """Return a successful reply, or re-raise its structured error."""
    if reply.get("ok"):
        return reply
    error = reply.get("error") or {}
    exc_type = ERROR_TYPES.get(error.get("type"), ReproError)
    raise exc_type(error.get("message", "server error"))


# -- request validation (client -> server) --------------------------------


def _is_finite_number(value: Any) -> bool:
    """A finite JSON number; ``json.loads`` also yields NaN and ±inf, and
    ``true`` / ``false`` are ints to Python."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return not isinstance(value, float) or math.isfinite(value)


def _validate_terms(value: Any, field: str) -> None:
    """``keywords`` / ``tokens``: absent, or a list of non-empty strings.

    Checked here, before anything is queued or logged: a term the engine
    cannot take would otherwise fail after its event-log record was
    written (and again on every replay of it), and one bad publish fails
    the whole micro-batch it shares."""
    if value is None:
        return
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(term, str) and term for term in value
    ):
        raise ProtocolError(f"'{field}' must be a list of non-empty strings")


def _validate_text(value: Any) -> None:
    if value is not None and not isinstance(value, str):
        raise ProtocolError("'text' must be a string")


def _validate_location(location: Any, op: str) -> None:
    """Shape check for strategy-mode locations: an (x, y) number pair.

    Range enforcement for *query* locations (unit square) stays with the
    spatial strategy, which owns that semantic; here we only guarantee
    the value cannot wedge the matcher."""
    if location is None:
        return
    if (
        not isinstance(location, (list, tuple))
        or len(location) != 2
        or not all(_is_finite_number(value) for value in location)
    ):
        raise ProtocolError(
            f"{op} 'location' must be a pair of numbers [x, y]"
        )


def parse_request(payload: Any) -> Dict[str, Any]:
    """Validate one inbound request object; raises :class:`ProtocolError`."""
    if not isinstance(payload, dict):
        raise ProtocolError(f"request must be a JSON object, got {type(payload).__name__}")
    op = payload.get("op")
    if op not in REQUEST_OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {REQUEST_OPS}"
        )
    if op in ("unsubscribe", "results"):
        query_id = payload.get("query_id")
        if not isinstance(query_id, int) or isinstance(query_id, bool):
            raise ProtocolError(f"{op} requires an integer 'query_id'")
    if op == "subscribe":
        keywords = payload.get("keywords")
        text = payload.get("text")
        if keywords is None and text is None:
            raise ProtocolError("subscribe requires 'keywords' or 'text'")
        _validate_terms(keywords, "keywords")
        _validate_text(text)
        _validate_location(payload.get("location"), "subscribe")
        window = payload.get("window")
        if window is not None and (
            not isinstance(window, int)
            or isinstance(window, bool)
            or window < 1
        ):
            raise ProtocolError(
                "subscribe 'window' must be a positive integer"
            )
    if op == "publish":
        _validate_location(payload.get("location"), "publish")
        tokens = payload.get("tokens")
        text = payload.get("text")
        if tokens is None and text is None:
            raise ProtocolError("publish requires 'tokens' or 'text'")
        _validate_terms(tokens, "tokens")
        _validate_text(text)
        created_at = payload.get("created_at")
        if created_at is not None and not _is_finite_number(created_at):
            raise ProtocolError("'created_at' must be a finite number")
    if op == "resume":
        subscriber = payload.get("subscriber")
        if not isinstance(subscriber, str) or not subscriber:
            raise ProtocolError(
                "resume requires a non-empty string 'subscriber'"
            )
        offset = payload.get("offset")
        if offset is not None and (
            not isinstance(offset, int) or isinstance(offset, bool)
        ):
            raise ProtocolError("resume 'offset' must be an integer")
    if op == "ack":
        offset = payload.get("offset")
        if not isinstance(offset, int) or isinstance(offset, bool) or offset < 0:
            raise ProtocolError("ack requires a non-negative integer 'offset'")
    if op == "dlq":
        limit = payload.get("limit")
        if limit is not None and (
            not isinstance(limit, int) or isinstance(limit, bool) or limit < 1
        ):
            raise ProtocolError("dlq 'limit' must be a positive integer")
    return payload


# -- NDJSON framing -------------------------------------------------------


#: The one JSON encoder every frame goes through (what ``json.dumps``
#: builds per call for these separators).
_encode = json.JSONEncoder(separators=(",", ":")).encode

#: Key orders of a ``notify`` frame built by :func:`notification_payload`,
#: without and with the event-log offset.
_NOTIFY_KEYS = ("op", "query_id", "document", "replaced")
_NOTIFY_KEYS_OFFSET = _NOTIFY_KEYS + ("offset",)


def _encode_scalar(value: Any) -> str:
    """``_encode(value)``; an ``int`` without building an encoder."""
    return int.__repr__(value) if type(value) is int else _encode(value)


def _memo_encode(value: Any, memo: Dict[int, str]) -> str:
    """``_encode(value)``, once per object per memo."""
    text = memo.get(id(value))
    if text is None:
        text = memo[id(value)] = _encode(value)
    return text


def encode_line(
    payload: Dict[str, Any], memo: Optional[Dict[int, str]] = None
) -> bytes:
    """One message as a ``\\n``-terminated UTF-8 JSON line.

    ``memo`` lets a writer that encodes several frames at once serialise
    a document payload shared by several ``notify`` frames only once.
    It maps ``id()`` of an already-encoded object to its JSON, so it
    must not outlive the payloads it was filled from: only a live
    object's id is unique.  A ``notify`` frame with exactly
    :func:`notification_payload`'s keys is composed from its parts;
    every other frame is one ``json.dumps``.  The bytes are the same
    either way.
    """
    if memo is not None and payload.get("op") == "notify":
        keys = tuple(payload)
        if keys == _NOTIFY_KEYS or keys == _NOTIFY_KEYS_OFFSET:
            parts = [
                '{"op":"notify","query_id":',
                _encode_scalar(payload["query_id"]),
                ',"document":',
                _memo_encode(payload["document"], memo),
                ',"replaced":',
                _memo_encode(payload["replaced"], memo),
            ]
            if len(keys) == 5:
                parts.append(',"offset":')
                parts.append(_encode_scalar(payload["offset"]))
            parts.append("}\n")
            return "".join(parts).encode("utf-8")
    return (_encode(payload) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one NDJSON line; raises :class:`ProtocolError` on bad input."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON line: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"expected a JSON object per line, got {type(payload).__name__}"
        )
    return payload


# -- client ops -----------------------------------------------------------


def _request(op: str, **fields: Any) -> Dict[str, Any]:
    """A request with the fields that are not None, in argument order."""
    payload: Dict[str, Any] = {"op": op}
    payload.update((k, v) for k, v in fields.items() if v is not None)
    return payload


class ProtocolClient:
    """The protocol's ops, one method each, for every transport.

    A transport subclass supplies ``request(payload)`` (send one request;
    return the successful reply or raise its structured error),
    ``next_message(timeout)`` and ``close()``, and hands every pushed
    message to :meth:`_saw`, so ``last_offset`` backs the ``resume`` /
    ``ack`` defaults.
    """

    #: Highest event-log offset of a pushed message seen so far.
    last_offset = -1

    def _saw(self, message: Dict[str, Any]) -> None:
        offset = message.get("offset")
        if isinstance(offset, int) and offset > self.last_offset:
            self.last_offset = offset

    async def subscribe(
        self,
        keywords: Optional[Iterable[str]] = None,
        text: Optional[str] = None,
        location: Optional[Sequence[float]] = None,
        window: Optional[int] = None,
    ) -> Dict[str, Any]:
        return await self.request(
            _request(
                "subscribe",
                keywords=list(keywords) if keywords is not None else None,
                text=text,
                location=list(location) if location is not None else None,
                window=window,
            )
        )

    async def unsubscribe(self, query_id: int) -> Dict[str, Any]:
        return await self.request({"op": "unsubscribe", "query_id": query_id})

    async def publish(
        self,
        tokens: Optional[Sequence[str]] = None,
        text: Optional[str] = None,
        created_at: Optional[float] = None,
        location: Optional[Sequence[float]] = None,
    ) -> Dict[str, Any]:
        return await self.request(
            _request(
                "publish",
                tokens=list(tokens) if tokens is not None else None,
                text=text,
                created_at=created_at,
                location=list(location) if location is not None else None,
            )
        )

    async def resume(
        self, subscriber: str, offset: Optional[int] = None
    ) -> Dict[str, Any]:
        """Attach this session to a durable subscriber identity.

        ``offset`` defaults to ``last_offset`` (acking it server-side); a
        negative one (``-1``) replays every retained notification.
        """
        if offset is None:
            offset = self.last_offset
        return await self.request(
            _request(
                "resume",
                subscriber=subscriber,
                offset=offset if offset >= 0 else None,
            )
        )

    async def ack(self, offset: Optional[int] = None) -> Dict[str, Any]:
        """Confirm delivery up to ``offset`` (default: ``last_offset``)."""
        if offset is None:
            offset = self.last_offset
        return await self.request({"op": "ack", "offset": int(offset)})

    async def dlq(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """Inspect the server's dead-letter queue."""
        return await self.request(_request("dlq", limit=limit))

    async def results(self, query_id: int) -> List[Dict[str, Any]]:
        reply = await self.request({"op": "results", "query_id": query_id})
        return reply["results"]

    async def stats(self) -> Dict[str, Any]:
        return (await self.request({"op": "stats"}))["stats"]

    async def metrics(self) -> str:
        """Prometheus text exposition of the server's telemetry."""
        return (await self.request({"op": "metrics"}))["metrics"]
