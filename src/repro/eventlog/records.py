"""Event-log record shapes (DESIGN.md §14).

Every accepted operation becomes exactly one JSON-safe record dict with
a ``kind`` discriminator, appended to the :class:`~repro.eventlog.segments.EventLog`
under one monotonic global offset *before* the engine sees it:

``publish``
    One record per document — never per batch — so a global offset names
    one accepted op; replay re-applies runs of them in the accepted
    order, however the live server batched them.  Carries the full
    wire-form document payload
    (explicit ``doc_id`` and ``created_at``), so replay is byte-identical
    regardless of clocks or id counters at recovery time.
``subscribe`` / ``unsubscribe``
    Query registration under an explicit ``query_id`` plus the optional
    durable ``subscriber`` name owning it.
``ack``
    A subscriber confirmed delivery up to ``offset``; replay uses it to
    trim retained outboxes exactly as the live server did.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from repro.errors import ReproError

#: The record kinds the log accepts, in no particular order.
RECORD_KINDS = ("publish", "subscribe", "unsubscribe", "ack")


def publish_record(doc_payload: Dict[str, Any]) -> Dict[str, Any]:
    """One accepted document (wire form of :func:`document_payload`)."""
    return {"kind": "publish", "doc": doc_payload}


def subscribe_record(
    query_id: int,
    terms: Iterable[str],
    subscriber: Optional[str] = None,
    location: Optional[Iterable[float]] = None,
    window: Optional[int] = None,
) -> Dict[str, Any]:
    """``location``/``window`` are the strategy-mode subscribe options;
    omitted keys keep the pre-strategy record shape byte-identical."""
    record: Dict[str, Any] = {
        "kind": "subscribe",
        "query_id": int(query_id),
        "terms": list(terms),
    }
    if subscriber is not None:
        record["subscriber"] = subscriber
    if location is not None:
        record["location"] = [float(value) for value in location]
    if window is not None:
        record["window"] = int(window)
    return record


def unsubscribe_record(
    query_id: int, subscriber: Optional[str] = None
) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "kind": "unsubscribe",
        "query_id": int(query_id),
    }
    if subscriber is not None:
        record["subscriber"] = subscriber
    return record


def ack_record(subscriber: str, offset: int) -> Dict[str, Any]:
    """``subscriber`` confirmed delivery of every entry up to ``offset``."""
    return {"kind": "ack", "subscriber": subscriber, "offset": int(offset)}


def validate_record(record: Any) -> Dict[str, Any]:
    """Validate one record dict; raises :class:`ReproError` on bad shape.

    Shared by the appender (reject before write — a malformed record must
    never reach disk) and recovery (a well-formed line that fails this is
    corruption, not a torn tail).
    """
    if not isinstance(record, dict):
        raise ReproError(
            f"event record must be a dict, got {type(record).__name__}"
        )
    kind = record.get("kind")
    if kind not in RECORD_KINDS:
        raise ReproError(
            f"unknown event record kind {kind!r}; expected one of "
            f"{RECORD_KINDS}"
        )
    if kind == "publish":
        doc = record.get("doc")
        if not isinstance(doc, dict):
            raise ReproError("publish record requires a 'doc' payload dict")
        if not isinstance(doc.get("doc_id"), int):
            raise ReproError("publish record doc requires an integer 'doc_id'")
        if not isinstance(doc.get("created_at"), (int, float)):
            raise ReproError(
                "publish record doc requires a numeric 'created_at'"
            )
        tf = doc.get("tf")
        if not isinstance(tf, dict):
            raise ReproError("publish record doc requires a 'tf' term map")
        for term, count in tf.items():
            if (
                type(term) is not str
                or type(count) is not int
                or count < 0
            ):
                raise ReproError(
                    "publish record 'tf' must map strings to non-negative "
                    f"integers, got {term!r}: {count!r}"
                )
    elif kind in ("subscribe", "unsubscribe"):
        query_id = record.get("query_id")
        if not isinstance(query_id, int) or isinstance(query_id, bool):
            raise ReproError(f"{kind} record requires an integer 'query_id'")
        if kind == "subscribe":
            if not isinstance(record.get("terms"), (list, tuple)):
                raise ReproError("subscribe record requires a 'terms' list")
            location = record.get("location")
            if location is not None and (
                not isinstance(location, (list, tuple))
                or len(location) != 2
                or any(
                    not isinstance(v, (int, float)) or isinstance(v, bool)
                    for v in location
                )
            ):
                raise ReproError(
                    "subscribe record 'location' must be a number pair"
                )
            window = record.get("window")
            if window is not None and (
                not isinstance(window, int)
                or isinstance(window, bool)
                or window < 1
            ):
                raise ReproError(
                    "subscribe record 'window' must be a positive integer"
                )
        subscriber = record.get("subscriber")
        if subscriber is not None and not isinstance(subscriber, str):
            raise ReproError(f"{kind} record 'subscriber' must be a string")
    else:  # ack
        if not isinstance(record.get("subscriber"), str):
            raise ReproError("ack record requires a string 'subscriber'")
        offset = record.get("offset")
        if not isinstance(offset, int) or isinstance(offset, bool):
            raise ReproError("ack record requires an integer 'offset'")
    return record
