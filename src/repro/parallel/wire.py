"""Pickle-lean wire format between the parent and shard workers.

Every message crossing a worker pipe is a flat tuple of ints, floats and
short strings — never an engine object.  Documents in particular are
shipped *pre-tokenized*: the parent interns each term against its master
:class:`~repro.text.vocabulary.Vocabulary` once and sends term-id /
term-count arrays, so a term string crosses the process boundary exactly
once (inside a vocabulary delta) no matter how many documents contain
it.  Workers keep a replica vocabulary in sync by applying the delta
that prefixes every request (see :mod:`repro.parallel.worker`).

Message framing (parent -> worker)::

    (op, vocab_delta, *args)

where ``vocab_delta`` is the list of master-vocabulary terms the worker
has not seen yet, in id order — appending them to the replica reproduces
the master's id assignment exactly.  Replies are ``("ok", result)`` or
``("err", exc_type_name, message)``; errors are reconstructed on the
parent from the :mod:`repro.errors` hierarchy by name so a worker-side
:class:`~repro.errors.DocumentOrderError` raises as the same type in the
caller.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Sequence, Tuple

from repro import errors as _errors
from repro.core.query import DasQuery
from repro.errors import ReproError
from repro.stream.document import Document
from repro.text.vectors import TermVector
from repro.text.vocabulary import Vocabulary

#: A document on the wire: (doc_id, created_at, term_ids, term_counts,
#: text[, location]).  The sixth element is optional — payloads without
#: a location stay five-tuples, keeping the pre-strategy wire shape.
DocumentPayload = Tuple[int, float, Tuple[int, ...], Tuple[int, ...], object]


def encode_document(document: Document, vocab: Vocabulary) -> DocumentPayload:
    """Intern the document's terms and return its wire tuple.

    Term ids keep the vector's own term order (counts are the raw term
    frequencies), so the worker rebuilds an identical :class:`TermVector`
    — same norms, same iteration order, hence bit-equal float sums over
    ``vector.items()`` (every Lemma 6 dot) on both sides of the pipe.
    """
    payload = (
        document.doc_id,
        document.created_at,
        tuple(vocab.add(term) for term in document.vector.terms()),
        tuple(count for _term, count in document.vector.items()),
        document.text,
    )
    if document.location is not None:
        payload += (document.location,)
    return payload


def decode_document(payload: DocumentPayload, vocab: Vocabulary) -> Document:
    """Inverse of :func:`encode_document` against the replica vocabulary."""
    doc_id, created_at, ids, counts, text = payload[:5]
    location = payload[5] if len(payload) > 5 else None
    tf = {vocab.term_of(i): count for i, count in zip(ids, counts)}
    return Document(
        int(doc_id), TermVector(tf), float(created_at), text, location
    )


def encode_query_terms(
    terms: Tuple[str, ...], vocab: Vocabulary
) -> Tuple[int, ...]:
    """Intern a query's keyword tuple as term ids."""
    return tuple(vocab.add(term) for term in terms)


def encode_query_options(query: DasQuery) -> Tuple[object, object]:
    """The strategy-mode subscribe options as a tiny picklable pair."""
    return (query.location, query.window)


def decode_query(
    query_id: int,
    term_ids: Tuple[int, ...],
    vocab: Vocabulary,
    options: Optional[Tuple[object, object]] = None,
) -> DasQuery:
    """Rebuild a :class:`DasQuery` (it re-sorts and dedups internally)."""
    location, window = options if options is not None else (None, None)
    return DasQuery(
        int(query_id), vocab.decode(term_ids), location=location, window=window
    )


#: A notification on the wire: (query_id, doc_id, replaced_doc_id | None).
NotificationPayload = Tuple[int, int, object]


def encode_notifications(notifications) -> List[NotificationPayload]:
    """Strip notifications to id triples; the parent re-attaches documents."""
    return [
        (
            notification.query_id,
            notification.document.doc_id,
            notification.replaced.doc_id
            if notification.replaced is not None
            else None,
        )
        for notification in notifications
    ]


#: Struct layouts of the binary batch codec (little-endian, packed).
_BATCH_HEADER = struct.Struct("<I")
_DOC_HEADER = struct.Struct("<qdII")
_RECORD = struct.Struct("<qqq")
#: Per-document location trailer: u8 presence flag, then two f64 when set.
_LOC_FLAG = struct.Struct("<B")
_LOC_PAIR = struct.Struct("<dd")
#: ``text_len`` sentinel distinguishing ``None`` from the empty string.
_TEXT_NONE = 0xFFFFFFFF

#: Exceptions the binary codec raises on out-of-range fields (term count
#: above uint16, term id above uint32, pathological text).  Callers
#: catch this tuple and fall back to the pickle pipe — overflow is a
#: routing decision, not an error.
WIRE_OVERFLOW = (struct.error, ValueError, OverflowError)


def encode_document_batch(payloads: Sequence[DocumentPayload]) -> bytes:
    """Pack document payloads into one flat binary blob (shm wire form).

    Layout: ``u32 ndocs`` then per document ``i64 doc_id, f64 created_at,
    u32 nterms, u32 text_len`` followed by ``nterms`` u32 term ids,
    ``nterms`` u16 term counts, the utf-8 text bytes (``text_len`` is
    the :data:`_TEXT_NONE` sentinel for ``None``) and a location trailer:
    ``u8 has_location`` then ``f64 x, f64 y`` when set.  Raises one of
    :data:`WIRE_OVERFLOW` when a field does not fit — the caller then
    ships the batch over the pipe instead.
    """
    parts = [_BATCH_HEADER.pack(len(payloads))]
    for payload in payloads:
        doc_id, created_at, ids, counts, text = payload[:5]
        location = payload[5] if len(payload) > 5 else None
        if text is None:
            text_bytes = b""
            text_len = _TEXT_NONE
        else:
            text_bytes = text.encode("utf-8")
            text_len = len(text_bytes)
            if text_len >= _TEXT_NONE:
                raise ValueError("document text too long for the shm wire")
        n = len(ids)
        parts.append(_DOC_HEADER.pack(doc_id, created_at, n, text_len))
        parts.append(struct.pack(f"<{n}I", *ids))
        parts.append(struct.pack(f"<{n}H", *counts))
        parts.append(text_bytes)
        if location is None:
            parts.append(_LOC_FLAG.pack(0))
        else:
            parts.append(_LOC_FLAG.pack(1))
            parts.append(_LOC_PAIR.pack(location[0], location[1]))
    return b"".join(parts)


def iter_document_payloads(buffer) -> Iterator[DocumentPayload]:
    """Decode a :func:`encode_document_batch` blob lazily, in place.

    Works directly over any buffer object (a shared-memory view in the
    worker), copying only the text bytes; yielding per document lets the
    worker time each document's decode as one telemetry observation.
    """
    (ndocs,) = _BATCH_HEADER.unpack_from(buffer, 0)
    offset = _BATCH_HEADER.size
    for _ in range(ndocs):
        doc_id, created_at, n, text_len = _DOC_HEADER.unpack_from(
            buffer, offset
        )
        offset += _DOC_HEADER.size
        ids = struct.unpack_from(f"<{n}I", buffer, offset)
        offset += 4 * n
        counts = struct.unpack_from(f"<{n}H", buffer, offset)
        offset += 2 * n
        if text_len == _TEXT_NONE:
            text = None
        else:
            text = bytes(buffer[offset : offset + text_len]).decode("utf-8")
            offset += text_len
        (has_location,) = _LOC_FLAG.unpack_from(buffer, offset)
        offset += _LOC_FLAG.size
        if has_location:
            location = _LOC_PAIR.unpack_from(buffer, offset)
            offset += _LOC_PAIR.size
            yield (doc_id, created_at, ids, counts, text, location)
        else:
            yield (doc_id, created_at, ids, counts, text)


def decode_document_batch(buffer) -> List[DocumentPayload]:
    """Eager inverse of :func:`encode_document_batch` (tests, tooling)."""
    return list(iter_document_payloads(buffer))


def encode_notification_records(notifications) -> bytes:
    """Pack notifications as fixed-width records (the compact reply form).

    One ``i64 × 3`` record per notification — query id, document id,
    replaced document id (``-1`` encodes "no eviction") — prefixed with
    a u32 count.  Workers return this blob instead of a pickled list of
    tuples for every publish reply.
    """
    parts = [_BATCH_HEADER.pack(len(notifications))]
    for notification in notifications:
        replaced = notification.replaced
        parts.append(
            _RECORD.pack(
                notification.query_id,
                notification.document.doc_id,
                replaced.doc_id if replaced is not None else -1,
            )
        )
    return b"".join(parts)


def decode_notification_records(data) -> List[NotificationPayload]:
    """Inverse of :func:`encode_notification_records` -> id triples."""
    (count,) = _BATCH_HEADER.unpack_from(data, 0)
    offset = _BATCH_HEADER.size
    triples: List[NotificationPayload] = []
    for _ in range(count):
        query_id, doc_id, replaced_id = _RECORD.unpack_from(data, offset)
        offset += _RECORD.size
        triples.append(
            (query_id, doc_id, replaced_id if replaced_id >= 0 else None)
        )
    return triples


def encode_notification_segments(segments) -> bytes:
    """Pack per-document notification segments (the publish reply form).

    ``u32 nsegments`` then per segment a
    :func:`encode_notification_records` blob.  The parent merges
    notification streams across shards by *segment position* — strategy
    modes may notify about documents other than the published one
    (window promotions), so the segment boundary is the only reliable
    document attribution.
    """
    parts = [_BATCH_HEADER.pack(len(segments))]
    for notifications in segments:
        parts.append(encode_notification_records(notifications))
    return b"".join(parts)


def decode_notification_segments(data) -> List[List[NotificationPayload]]:
    """Inverse of :func:`encode_notification_segments` -> triple lists."""
    (nsegments,) = _BATCH_HEADER.unpack_from(data, 0)
    offset = _BATCH_HEADER.size
    segments: List[List[NotificationPayload]] = []
    for _ in range(nsegments):
        (count,) = _BATCH_HEADER.unpack_from(data, offset)
        offset += _BATCH_HEADER.size
        triples: List[NotificationPayload] = []
        for _ in range(count):
            query_id, doc_id, replaced_id = _RECORD.unpack_from(data, offset)
            offset += _RECORD.size
            triples.append(
                (query_id, doc_id, replaced_id if replaced_id >= 0 else None)
            )
        segments.append(triples)
    return segments


def encode_error(exc: BaseException) -> Tuple[str, str, str]:
    return ("err", type(exc).__name__, str(exc))


def decode_error(type_name: str, message: str) -> ReproError:
    """Map a worker error back to its :mod:`repro.errors` class by name.

    Unknown names (e.g. a worker-side ``ValueError``) degrade to the
    base :class:`ReproError` with the original type recorded in the
    message — the parent must never crash on an unrecognised error.
    """
    candidate = getattr(_errors, type_name, None)
    if isinstance(candidate, type) and issubclass(candidate, ReproError):
        return candidate(message)
    return ReproError(f"{type_name}: {message}")
