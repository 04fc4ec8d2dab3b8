"""Recovery = latest checkpoint + event-log replay (DESIGN.md §14).

A checkpoint file ``checkpoint-<offset>.json`` pairs an engine payload
(:func:`repro.persistence.checkpoint.checkpoint` schema) with a
:class:`~repro.eventlog.subscribers.SubscriberRegistry` snapshot, both
taken at one log offset.  Because the registry's retained outboxes ride
inside the checkpoint, truncating the log up to the checkpoint offset
never strands an un-acked delivery.

:func:`recover` is a pure function of the directory contents: load the
newest readable checkpoint (torn or corrupt candidates — a crash during
``checkpoint.write`` — are skipped in favour of older ones), restore the
engine and registry from it, then re-apply every logged record above its
offset in offset order, each read from its segment file as replay
reaches it (the log keeps no records in memory).  The serving runtime
changes state through the same functions, so the live and the replayed
state cannot drift apart: :func:`apply_record` for a subscribe,
unsubscribe or ack, :func:`apply_publishes` for a run of publishes,
which replay cuts at any other record and at
:data:`~repro.config.DEFAULT_BATCH_SIZE` documents (a batch matches as
its documents would one at a time).  Logged-but-unacked ops (the
at-least-once in-doubt window) surface exactly once, via the outbox, so
a resumed subscriber's stream is byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from itertools import groupby, islice
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.config import DEFAULT_BATCH_SIZE, EngineConfig
from repro.core.events import Notification
from repro.core.query import DasQuery
from repro.errors import ConfigurationError, ReproError
from repro.eventlog.segments import EventLog
from repro.eventlog.subscribers import SubscriberRegistry
from repro.persistence.checkpoint import _write_atomic, restore
from repro.stream.document import Document

#: Checkpoint file naming: checkpoint-<20-digit offset>.json
CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".json"

#: Format marker for the combined engine+registry checkpoint file.
EVENTLOG_CHECKPOINT_VERSION = 1

_Entry = Tuple[int, Dict[str, Any]]  # (offset, record) read from the log


def checkpoint_path(directory: str, offset: int) -> str:
    return os.path.join(
        directory, f"{CHECKPOINT_PREFIX}{offset:020d}{CHECKPOINT_SUFFIX}"
    )


def _checkpoint_offsets(directory: str) -> List[int]:
    offsets = []
    for name in os.listdir(directory):
        if not (
            name.startswith(CHECKPOINT_PREFIX)
            and name.endswith(CHECKPOINT_SUFFIX)
        ):
            continue
        digits = name[len(CHECKPOINT_PREFIX) : -len(CHECKPOINT_SUFFIX)]
        if digits.isdigit():
            offsets.append(int(digits))
    return sorted(offsets)


def write_checkpoint(
    directory: str,
    offset: int,
    engine_payload: Dict[str, Any],
    subscribers_payload: Dict[str, Any],
    injector: Optional[object] = None,
    fsync: str = "always",
) -> str:
    """Atomically write a checkpoint at ``offset``; removes older ones.

    Only the newest checkpoint is kept: the caller then truncates the
    log to its offset, and an older checkpoint could no longer be
    replayed from there.  Same crash discipline as
    :func:`repro.persistence.checkpoint.save` (one temp-file, fsync,
    replace and directory-fsync sequence): an injected
    ``checkpoint.write`` ``torn`` fault leaves a truncated *temp* file —
    never a truncated checkpoint — and prunes nothing, so recovery falls
    back to the previous one (and deletes the temp file).  The directory
    sync follows the log's ``fsync`` policy, so the new name is durable
    before an older checkpoint — or, in the caller, any log segment the
    checkpoint covers — is removed.
    """
    payload = {
        "version": EVENTLOG_CHECKPOINT_VERSION,
        "offset": int(offset),
        "engine": engine_payload,
        "subscribers": subscribers_payload,
    }
    path = checkpoint_path(directory, offset)
    _write_atomic(path, json.dumps(payload), injector, fsync)
    for old in _checkpoint_offsets(directory)[:-1]:
        os.remove(checkpoint_path(directory, old))
    return path


def latest_checkpoint(directory: str) -> Optional[Dict[str, Any]]:
    """Newest readable checkpoint payload, or None.

    Unreadable candidates (torn write that somehow reached the final
    name, wrong version, truncated JSON) are skipped, not fatal; the
    fallback replays only if the log still reaches back to its offset
    (:func:`recover` raises on the gap otherwise).
    """
    for offset in reversed(_checkpoint_offsets(directory)):
        try:
            with open(checkpoint_path(directory, offset)) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            continue
        if (
            isinstance(payload, dict)
            and payload.get("version") == EVENTLOG_CHECKPOINT_VERSION
            and isinstance(payload.get("offset"), int)
        ):
            return payload
    return None


@dataclass
class RecoveredState:
    """What :func:`recover` hands back to the serving runtime."""

    engine: object
    registry: SubscriberRegistry
    log: EventLog
    checkpoint_offset: int = -1
    replayed: int = 0
    #: (offset, error) per tolerated replay anomaly, e.g. an unsubscribe of
    #: a query already gone; a refused publish run under its first offset.
    replay_errors: List[Tuple[int, str]] = field(default_factory=list)


def _query_of(record: Dict[str, Any]) -> DasQuery:
    return DasQuery(
        record["query_id"],
        record["terms"],
        location=record.get("location"),
        window=record.get("window"),
    )


def check_record(engine: object, record: Dict[str, Any]) -> None:
    """Raise what :func:`apply_record` would refuse ``record`` with,
    changing nothing: the serving runtime logs only a record that
    passes, so replaying its log meets no refusal."""
    kind = record["kind"]
    if kind == "subscribe":
        engine.check_subscribe(_query_of(record))
    elif kind == "unsubscribe":
        engine._query_of(record["query_id"])


def apply_record(
    engine: object,
    registry: Optional[SubscriberRegistry],
    offset: Optional[int],
    record: Dict[str, Any],
) -> Any:
    """Apply one record to an engine + registry pair (``registry`` is
    None for a server without the log): how a subscribe, unsubscribe or
    ack changes state, live or replayed.  Returns a subscribe's initial
    results, an ack's count of trimmed outbox entries.  A publish record
    goes through :func:`apply_publishes` as a run of one.
    """
    kind = record["kind"]
    if kind == "subscribe":
        initial = engine.subscribe(_query_of(record))
        name = record.get("subscriber")
        if name is not None:
            registry.record_subscribe(name, record["query_id"])
        return initial
    if kind == "unsubscribe":
        if registry is not None:
            registry.record_unsubscribe(record["query_id"])
        engine.unsubscribe(record["query_id"])
        return None
    if kind == "ack":
        return registry.ack(record["subscriber"], record["offset"])
    _replay_publishes(engine, registry, [(offset, record)])
    return None


def apply_publishes(
    engine: object,
    registry: Optional[SubscriberRegistry],
    documents: List[Document],
    offsets: Optional[List[int]] = None,
    payloads: Optional[Dict[int, Dict[str, Any]]] = None,
    matched: Optional[Callable[[], None]] = None,
) -> List[Tuple[Notification, Optional[int], Optional[Dict[str, Any]]]]:
    """Apply a run of logged publishes, live or replayed: one
    ``engine.publish_batch`` (``matched()`` is called when it returns),
    then each notification whose query a durable subscriber owns is
    offered to its outbox under its document's log offset (``offsets``
    in document order; None without the log).  Document payloads come
    from ``payloads`` (doc id -> payload), built and added when missing.
    Returns ``(notification, offset, outbox payload or None)`` in the
    engine's order, for the caller to route."""
    from repro.server.protocol import notification_payload

    notifications = engine.publish_batch(documents)
    if matched is not None:
        matched()
    offset_of = dict(zip([doc.doc_id for doc in documents], offsets or ()))
    payloads = {} if payloads is None else payloads
    kept = []
    for notification in notifications:
        offset = offset_of.get(notification.document.doc_id)
        payload = None
        if offset is not None:
            name = registry.owner_of(notification.query_id)
            if name is not None:
                payload = notification_payload(notification, offset, payloads)
                registry.offer(name, offset, notification.query_id, payload)
        kept.append((notification, offset, payload))
    return kept


def _replay_publishes(
    engine: object, registry: SubscriberRegistry, run: List[_Entry]
) -> None:
    from repro.server.protocol import document_from_payload

    documents = [document_from_payload(record["doc"]) for _, record in run]
    apply_publishes(engine, registry, documents, [offset for offset, _ in run])


def _runs(entries: Iterator[_Entry], limit: int) -> Iterator[List[_Entry]]:
    """``entries`` cut into replay units: up to ``limit`` consecutive
    publish records, or one record of any other kind."""
    kinds = groupby(entries, lambda entry: entry[1]["kind"] == "publish")
    for publishes, group in kinds:
        size = limit if publishes else 1
        yield from iter(lambda: list(islice(group, size)), [])


def _require_same_config(restored: EngineConfig, provided: EngineConfig) -> None:
    differing = [
        f"{item.name} (checkpoint {getattr(restored, item.name)!r}, "
        f"engine {getattr(provided, item.name)!r})"
        for item in fields(EngineConfig)
        if getattr(restored, item.name) != getattr(provided, item.name)
    ]
    if differing:
        raise ConfigurationError(
            "eventlog checkpoint was written under another engine "
            "config: " + ", ".join(differing)
        )


def recover(
    directory: str,
    engine: object,
    registry: Optional[SubscriberRegistry] = None,
    fsync: str = "always",
    segment_entries: int = 512,
    injector: Optional[object] = None,
) -> RecoveredState:
    """Bring a directory's logged history back to life.

    ``engine`` is the *fresh* engine to replay into when no checkpoint
    exists; when one does, the checkpointed engine replaces it (the
    caller inspects ``RecoveredState.engine`` and swaps).  That engine
    must be configured as ``engine`` is: a :class:`ConfigurationError`
    names the fields that differ.  ``registry`` lets the caller
    pre-configure capacity/DLQ wiring; a default one is built otherwise.
    """
    os.makedirs(directory, exist_ok=True)
    for name in os.listdir(directory):
        # A checkpoint write that failed or crashed before its rename
        # leaves its temporary behind; the checkpoint before it stands.
        if name.startswith(CHECKPOINT_PREFIX) and name.endswith(".tmp"):
            os.remove(os.path.join(directory, name))
    if registry is None:
        registry = SubscriberRegistry()
    checkpoint = latest_checkpoint(directory)
    checkpoint_offset = -1
    if checkpoint is not None:
        restored = restore(checkpoint["engine"])
        _require_same_config(restored.config, engine.config)
        engine = restored
        registry.load(checkpoint["subscribers"])
        checkpoint_offset = checkpoint["offset"]
    log = EventLog(
        directory,
        fsync=fsync,
        segment_entries=segment_entries,
        injector=injector,
    )
    replay_from = max(checkpoint_offset, 0)
    if replay_from < log.base:
        raise ReproError(
            f"event log base {log.base} is past the checkpoint offset "
            f"{replay_from}: retained history has a gap"
        )
    state = RecoveredState(
        engine=engine,
        registry=registry,
        log=log,
        checkpoint_offset=checkpoint_offset,
    )
    for run in _runs(log.entries_since(replay_from), DEFAULT_BATCH_SIZE):
        offset, record = run[0]
        try:
            if record["kind"] == "publish":
                _replay_publishes(engine, registry, run)
            else:
                apply_record(engine, registry, offset, record)
        except ReproError as exc:
            # Tolerated: e.g. unsubscribing a query the engine no longer
            # knows.  Replay must converge on the pre-crash state, not
            # die on an op the live server also treated as a client
            # error.
            state.replay_errors.append((offset, str(exc)))
        state.replayed += len(run)
    return state
