"""The asyncio serving runtime: ingestion pipeline + fan-out delivery.

Architecture (one event loop, one thread, one matcher):

::

    publishers --await put--> [bounded ingest queue] --> matcher task
                                                           |  drains what is queued
                                                           v  (on the loop)
                                     log append, then apply_publishes
                                                           |
                              per-subscriber sessions <----+  route notifications
                              (bounded, slow-consumer policy)

Every op enters through :meth:`ServerRuntime.submit_request` (then
:meth:`~ServerRuntime.complete_request`), the one entry both transports
and the simulation harness use.  Every engine operation — subscribe,
unsubscribe, publish, results — flows through the single ingestion
queue and is executed by the single matcher task, so the engine only
ever sees one call at a time and the dequeue order *is* the accepted
serialization: under any interleaving of
concurrent publishers, each subscriber observes exactly the notification
subsequence of one sequential publish order (the order acknowledged ids
were assigned).  Engine calls run directly on the event loop: a batch
blocks the loop while it matches, and the matcher yields once per turn
so transports and consumers run between batches.  ``stats`` and
``metrics`` read the engine between matcher turns, never mid-batch.

Control operations act as batch barriers: the matcher flushes the
publish batch it is coalescing before executing them, which gives
read-your-writes semantics to ``results`` and makes subscriptions take
effect at a well-defined point of the accepted order.

Shutdown (``stop(drain=True)``) stops accepting new work, lets the
matcher flush everything already accepted, then flushes delivery queues
against ``ServerConfig.drain_timeout`` — under the ``block`` policy every
accepted document's notifications reach their consumers (no loss).

With ``ServerConfig.eventlog_dir`` set, the runtime gains the durability
tier (DESIGN.md §14): every accepted op is appended to a write-ahead
:class:`repro.eventlog.EventLog` *before* the engine matches it, start
recovers from the newest checkpoint plus a log replay, durable
subscribers catch up over outages via the ``resume``/``ack`` ops,
undeliverable notifications land in a dead-letter queue, and per-session
token buckets throttle hot publishers.
"""

from __future__ import annotations

import asyncio
import os
import time
from contextlib import suppress
from typing import Any, Dict, List, Optional, Tuple

from repro.config import SLOW_CONSUMER_POLICIES, ServerConfig
from repro.core.engine import DasEngine
from repro.core.events import Notification
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ReproError,
    ServerClosedError,
    UnknownQueryError,
)
from repro.eventlog import (
    DeadLetterQueue,
    SubscriberRegistry,
    TokenBucket,
    ack_record,
    apply_publishes,
    apply_record,
    check_record,
    publish_record,
    recover,
    subscribe_record,
    unsubscribe_record,
    write_checkpoint,
)
from repro.persistence.checkpoint import checkpoint
from repro.server.protocol import (
    document_payload,
    error_reply,
    notification_payload,
    ok_reply,
    parse_request,
    snapshot_payload,
)
from repro.server.sessions import SubscriberSession
from repro.stream.document import Document
from repro.telemetry import (
    PIPELINE_STAGES,
    BatchHistogram,
    LatencyHistogram,
    Telemetry,
    effectiveness_gauges,
    empty_snapshot,
    render_exposition,
)

#: Sentinel queued by ``stop`` after the last accepted item (FIFO puts
#: guarantee nothing lands behind it once submissions are rejected).
_STOP = object()


class _PublishItem:
    __slots__ = (
        "tokens",
        "text",
        "created_at",
        "location",
        "future",
        "enqueued_at",
    )

    def __init__(self, request, future, enqueued_at) -> None:
        self.tokens = request.get("tokens")
        self.text = request.get("text")
        self.created_at = request.get("created_at")
        self.location = request.get("location")
        self.future = future
        #: Runtime clock reading at ingest-queue admission; the matcher
        #: observes ``dequeue - enqueued_at`` as ingest-queue wait.
        self.enqueued_at = enqueued_at

    def document(self, doc_id: int, timestamp: float) -> Document:
        """The document this publish is accepted as."""
        if self.tokens is not None:
            return Document.from_tokens(
                doc_id, self.tokens, timestamp, self.text, self.location
            )
        return Document.from_text(doc_id, self.text, timestamp, self.location)


class _ControlItem:
    __slots__ = ("kind", "session", "args", "future")

    def __init__(self, kind, session, args, future) -> None:
        self.kind = kind
        self.session = session
        self.args = args
        self.future = future


class PendingReply:
    """A submitted request whose reply is still owed (see
    :meth:`ServerRuntime.submit_request`).

    ``future`` is the queued item's future, ``None`` for an op answered
    without the ingest queue; ``error`` is a failure found while
    submitting, in which case nothing was queued.
    """

    __slots__ = ("reply_to", "session", "request", "future", "error")

    def __init__(
        self, reply_to, session=None, request=None, future=None, error=None
    ) -> None:
        self.reply_to = reply_to
        self.session = session
        self.request = request
        self.future = future
        self.error = error

    def abandon(self) -> None:
        """Nobody will read this reply (the connection is gone): mark
        whatever the matcher or ``stop`` later sets on the future as
        retrieved, so an orphaned failure is not logged as a leak."""
        if self.future is not None:
            self.future.add_done_callback(_retrieve)


def _refuse(item, exc: Exception) -> None:
    if not item.future.done():
        item.future.set_exception(exc)


def _retrieve(future: asyncio.Future) -> None:
    if not future.cancelled():
        future.exception()


class ServerRuntime:
    """Async serving runtime around one :class:`DasEngine` (or a proxy
    with its surface, such as the simulation's ``InstrumentedEngine``).

    Every engine call runs on the event loop's thread, inside the matcher
    task or (``stats``/``metrics`` reads) between its turns.
    """

    def __init__(
        self, engine: DasEngine, config: Optional[ServerConfig] = None
    ) -> None:
        self._config = config if config is not None else ServerConfig()
        self._engine = engine
        self._batches = BatchHistogram()
        self._now = self._config.time_source or time.time
        #: The pipeline histograms' clock: monotonic unless a test or the
        #: simulation substitutes ``time_source``.
        self._timer = self._config.time_source or time.perf_counter
        self._injector = self._config.fault_injector
        self._state = "new"
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ingest: Optional[asyncio.Queue] = None
        self._matcher_task: Optional[asyncio.Task] = None
        self._sessions: Dict[int, SubscriberSession] = {}
        self._owners: Dict[int, SubscriberSession] = {}
        self._next_session_id = 0
        self._next_doc_id = 0
        self._last_created_at = 0.0
        self._inflight: List[object] = []
        self._accepted = 0
        self._published = 0
        self._disconnects = 0
        self._matcher_errors = 0
        self._delivery_errors = 0
        self._failed_on_stop = 0
        self._unflushed = 0
        self._retired_drops = {policy: 0 for policy in SLOW_CONSUMER_POLICIES}
        self._retired_coalesced = 0
        # -- durability tier (None unless eventlog_dir is configured) --
        self._eventlog = None
        self._dlq: Optional[DeadLetterQueue] = None
        self._registry: Optional[SubscriberRegistry] = None
        self._checkpoint_offset = -1
        self._appended_since_checkpoint = 0
        self._checkpoints_written = 0
        self._checkpoint_errors = 0
        self._recovery: Optional[Dict[str, Any]] = None
        #: Set when a logged batch failed before the engine matched it
        #: all: from then on every queued and later request is refused.
        self._failure: Optional[ServerClosedError] = None
        #: session_id -> publish token bucket (throttle_rate > 0 only).
        self._buckets: Dict[int, TokenBucket] = {}
        self._throttled_publishes = 0
        self._throttle_waited = 0.0
        #: Serving-pipeline stage histograms (engine stages live in the
        #: engine's Telemetry; merged into one surface by stats()).
        self._pipeline = {
            stage: LatencyHistogram() for stage in PIPELINE_STAGES
        }

    # -- introspection ----------------------------------------------------

    @property
    def config(self) -> ServerConfig:
        return self._config

    @property
    def engine(self) -> DasEngine:
        return self._engine

    def _next_query_id(self) -> int:
        """The id the next subscribe is assigned: one past the highest id
        the engine ever accepted, unsubscribed or not, so an id is never
        handed out twice."""
        last = self._engine._last_query_id
        return 0 if last is None else last + 1

    def _doc_id_floor(self) -> int:
        last = self._engine.store._last_id
        return 0 if last is None else last + 1

    @property
    def state(self) -> str:
        return self._state

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        if self._state != "new":
            raise ServerClosedError(f"runtime already {self._state}")
        self._loop = asyncio.get_running_loop()
        self._ingest = asyncio.Queue(self._config.ingest_capacity)
        if self._config.eventlog_dir is not None:
            self._open_eventlog()
        self._next_doc_id = self._doc_id_floor()
        self._last_created_at = self._engine.clock.now
        # Unless the caller wired its own (the simulation harness uses a
        # deterministic clock), the engine reports wall-clock telemetry.
        if self._engine.telemetry is None:
            self._engine.attach_telemetry(Telemetry())
        self._matcher_task = asyncio.create_task(self._matcher_loop())
        self._state = "running"

    def _open_eventlog(self) -> None:
        """Open (and recover from) the configured event-log directory.

        Runs once in ``start`` before the matcher exists, so recovery
        replay is the first thing the engine sees.  When the directory
        holds a checkpoint, the engine restored from it *replaces* the
        fresh one this runtime was constructed with.
        """
        config = self._config
        os.makedirs(config.eventlog_dir, exist_ok=True)
        self._dlq = DeadLetterQueue(
            config.eventlog_dir, fsync=config.eventlog_fsync
        )
        registry = SubscriberRegistry(
            outbox_capacity=config.outbox_capacity,
            max_attempts=config.dlq_max_attempts,
            dlq=self._dlq,
        )
        provided = self._engine
        fresh = self._next_query_id() == 0 and self._doc_id_floor() == 0
        try:
            state = recover(
                config.eventlog_dir,
                provided,
                registry=registry,
                fsync=config.eventlog_fsync,
                segment_entries=config.eventlog_segment_entries,
                injector=self._injector,
            )
        except Exception:
            self._dlq.close()
            raise
        if state.engine is not provided:
            if not fresh:
                state.log.close()
                self._dlq.close()
                raise ConfigurationError(
                    "eventlog recovery found a checkpoint but the provided "
                    "engine already holds state; pass a fresh engine"
                )
            self._engine = state.engine
        self._eventlog = state.log
        self._registry = state.registry
        self._checkpoint_offset = state.checkpoint_offset
        self._recovery = {
            "checkpoint_offset": state.checkpoint_offset,
            "replayed": state.replayed,
            "replay_errors": len(state.replay_errors),
        }

    async def stop(self, drain: bool = True) -> None:
        """Graceful (or immediate) shutdown.

        With ``drain=True``: stop accepting, flush the ingestion queue,
        then flush delivery queues — all against the configured
        ``drain_timeout`` deadline.  Stalled consumers are closed when
        the deadline passes.
        """
        if self._state in ("stopped", "new"):
            self._state = "stopped"
            return
        if self._state == "draining":
            return
        self._state = "draining"
        deadline = self._loop.time() + self._config.drain_timeout
        if drain:
            await self._ingest.put(_STOP)
            try:
                await asyncio.wait_for(
                    asyncio.shield(self._matcher_task),
                    max(0.001, deadline - self._loop.time()),
                )
            except asyncio.TimeoutError:
                self._matcher_task.cancel()
                with suppress(asyncio.CancelledError):
                    await self._matcher_task
            except Exception:
                # A crashed matcher must not abort shutdown: everything it
                # never processed is failed below via _fail_pending.
                self._matcher_errors += 1
            for session in list(self._sessions.values()):
                remaining = deadline - self._loop.time()
                if remaining > 0 and not session.closed:
                    await session.drain(remaining)
        else:
            self._matcher_task.cancel()
            with suppress(asyncio.CancelledError, Exception):
                await self._matcher_task
        for session in list(self._sessions.values()):
            self._unflushed += session.depth
            await session.close("shutdown")
            self._remove_session(session)
        self._failed_on_stop += self._fail_pending(
            ServerClosedError("server stopped")
        )
        if self._eventlog is not None:
            self._eventlog.close()
        if self._dlq is not None:
            self._dlq.close()
        self._state = "stopped"

    def _fail_pending(self, exc: Exception) -> int:
        """Fail futures of items the matcher never processed.

        Returns how many submissions were failed, so ``stop`` can report
        lost-on-shutdown work instead of silently dropping it (the drain
        contract is *flush or report*).
        """
        leftovers = list(self._inflight)
        self._inflight.clear()
        while self._ingest is not None and not self._ingest.empty():
            leftovers.append(self._ingest.get_nowait())
        failed = 0
        for item in leftovers:
            future = getattr(item, "future", None)
            if future is not None and not future.done():
                future.set_exception(exc)
                failed += 1
        return failed

    # -- session management ------------------------------------------------

    def open_session(
        self,
        policy: Optional[str] = None,
        capacity: Optional[int] = None,
    ) -> SubscriberSession:
        if self._state not in ("new", "running"):
            raise ServerClosedError(f"runtime is {self._state}")
        session = SubscriberSession(
            self._next_session_id,
            capacity if capacity is not None else self._config.outbound_capacity,
            policy if policy is not None else self._config.slow_consumer_policy,
        )
        self._next_session_id += 1
        self._sessions[session.session_id] = session
        return session

    async def close_session(self, session: SubscriberSession) -> None:
        """Close a session and release its subscriptions.

        Anonymous sessions retire (unsubscribe) their queries; a durable
        subscriber merely *detaches* — its queries stay live in the
        engine and notifications keep accruing to its retained outbox
        until it resumes (or they dead-letter).
        """
        await session.close("client")
        if session.subscriber is not None:
            self._detach_subscriber(session)
        elif self._state == "running" and session.subscribed:
            # Not ``session.queries``: a subscribe submitted just before
            # the close may still be queued, and the barrier has to land
            # behind it to retire what it registers.
            await self._submit_control("retire", session, None)
        else:
            for query_id in list(session.queries):
                self._owners.pop(query_id, None)
            session.queries.clear()
        self._remove_session(session)

    def _detach_subscriber(self, session: SubscriberSession) -> None:
        """Disconnect a durable subscriber without touching the engine."""
        if self._registry is not None:
            self._registry.detach(session.subscriber)
        for query_id in list(session.queries):
            if self._owners.get(query_id) is session:
                self._owners.pop(query_id)
        session.queries.clear()

    def _remove_session(self, session: SubscriberSession) -> None:
        self._buckets.pop(session.session_id, None)
        if self._sessions.pop(session.session_id, None) is not None:
            self._retired_drops[session.policy] += session.dropped
            self._retired_coalesced += session.coalesced

    # -- queueing ----------------------------------------------------------

    def _require_running(self, op: str) -> None:
        if self._state != "running":
            raise ServerClosedError(
                f"cannot {op}: runtime is {self._state}"
            )

    async def _enqueue_control(
        self, kind: str, session: Optional[SubscriberSession], args: object
    ) -> asyncio.Future:
        """Queue one control item; returns the future the matcher resolves.

        Suspends only while the ingest queue is full, so successive calls
        from one task enter the matcher's FIFO in call order.
        """
        future = self._loop.create_future()
        # No await between the state check and the queue put: FIFO puts
        # guarantee the item lands ahead of any later stop() sentinel.
        self._require_running(kind)
        await self._ingest.put(_ControlItem(kind, session, args, future))
        return future

    async def _submit_control(
        self, kind: str, session: Optional[SubscriberSession], args: object
    ) -> object:
        return await (await self._enqueue_control(kind, session, args))

    async def _enqueue_publish(
        self, session: Optional[SubscriberSession], request: Dict[str, Any]
    ) -> asyncio.Future:
        """Queue one parsed publish; returns the future of its ack.

        Suspends for the session's throttle and while the ingest queue
        is full — nothing else — so successive calls from one task are
        matched in call order.
        """
        self._require_running("publish")
        if self._config.throttle_rate > 0.0 and session is not None:
            await self._throttle(session)
        self._require_running("publish")
        if self._injector is not None:
            self._injector.fire("ingest.put")
        future = self._loop.create_future()
        await self._ingest.put(_PublishItem(request, future, self._timer()))
        return future

    async def _throttle(self, session: SubscriberSession) -> None:
        """Queue-based load leveling: await (never reject) a hot client.

        One token bucket per session; the bucket clock is the event
        loop's monotonic clock so waits always elapse, even when the
        runtime's ``time_source`` is a simulated clock.
        """
        bucket = self._buckets.get(session.session_id)
        if bucket is None:
            bucket = self._buckets[session.session_id] = TokenBucket(
                self._config.throttle_rate, self._config.throttle_burst
            )
        waited = 0.0
        while True:
            wait = bucket.take(self._loop.time())
            if wait <= 0.0:
                break
            if waited == 0.0:
                self._throttled_publishes += 1
            waited += wait
            await asyncio.sleep(wait)
        if waited > 0.0:
            self._throttle_waited += waited
            self._pipeline["throttle_wait"].observe(waited)

    def _require_eventlog(self, op: str) -> None:
        if self._eventlog is None:
            raise ConfigurationError(
                f"{op} requires the event log (set eventlog_dir)"
            )

    def _ack(
        self, session: SubscriberSession, offset: int
    ) -> Dict[str, Any]:
        """Confirm delivery up to ``offset`` for the session's durable
        subscriber (``resume`` acks through here too); logged so recovery
        trims the outbox identically."""
        self._require_eventlog("ack")
        if self._failure is not None:
            raise ServerClosedError(f"cannot ack: {self._failure}")
        name = session.subscriber if session is not None else None
        if name is None:
            raise ReproError(
                "ack requires a session resumed as a durable subscriber"
            )
        offset = int(offset)
        self._require_logged("ack", offset)
        trimmed = self._commit(ack_record(name, offset))
        session.acked_offset = max(session.acked_offset, offset)
        return {
            "subscriber": name,
            "acked": self._registry.get(name).acked,
            "trimmed": trimmed,
        }

    def _require_logged(self, op: str, offset: int) -> None:
        """Refuse an ack past every logged op: its floor would cover
        offsets not yet written, and the registry would drop their
        notifications as confirmed."""
        end = self._eventlog.end
        if offset >= end:
            raise ProtocolError(
                f"{op} offset {offset} is past the log's end ({end})"
            )

    def _dlq_report(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """The ``dlq`` op payload (also works with the log disabled)."""
        if self._dlq is None:
            return {"enabled": False, "stats": None, "entries": []}
        return {
            "enabled": True,
            "stats": self._dlq.stats(),
            "entries": self._dlq.entries(limit),
        }

    async def checkpoint_eventlog(self) -> Dict[str, Any]:
        """Write an event-log checkpoint now (matcher barrier)."""
        self._require_eventlog("checkpoint")
        return await self._submit_control("eventlog_checkpoint", None, None)

    def stats(self) -> Dict[str, Any]:
        """Admin surface: queue depths, batching, per-policy drops,
        engine counters."""
        sessions = [
            session.as_dict() for session in self._sessions.values()
        ]
        drops = dict(self._retired_drops)
        coalesced = self._retired_coalesced
        for session in self._sessions.values():
            drops[session.policy] += session.dropped
            coalesced += session.coalesced
        counters = self._engine.counters.as_dict()
        return {
            "state": self._state,
            "accepted": self._accepted,
            "published": self._published,
            "ingest_depth": self._ingest.qsize() if self._ingest else 0,
            "ingest_capacity": self._config.ingest_capacity,
            "batches": self._batches.as_dict(),
            "sessions": sessions,
            "policy_drops": drops,
            "coalesced": coalesced,
            "disconnects": self._disconnects,
            "matcher_errors": self._matcher_errors,
            "delivery_errors": self._delivery_errors,
            "failed_on_stop": self._failed_on_stop,
            "unflushed": self._unflushed,
            "counters": counters,
            "telemetry": self._telemetry_section(counters),
            "eventlog": self._eventlog_section(),
            "dlq": self._dlq.stats() if self._dlq is not None else None,
            "subscribers": self._subscribers_section(),
            "throttling": self._throttling_section(),
        }

    def _eventlog_section(self) -> Optional[Dict[str, Any]]:
        """Durability section of stats(); None when the log is disabled."""
        if self._eventlog is None:
            return None
        section = self._eventlog.stats()
        section["checkpoint_offset"] = self._checkpoint_offset
        section["checkpoints_written"] = self._checkpoints_written
        section["checkpoint_errors"] = self._checkpoint_errors
        section["appended_since_checkpoint"] = self._appended_since_checkpoint
        section["recovery"] = self._recovery
        return section

    def _subscribers_section(self) -> Optional[Dict[str, Any]]:
        """Durable-subscriber section of stats(), with each one's ``lag``:
        how many log records were appended after the one it last acked
        (its own ack records included, so a live log never reads 0)."""
        if self._registry is None:
            return None
        section = self._registry.stats()
        last = self._eventlog.end - 1
        for subscriber in section["subscribers"]:
            subscriber["lag"] = max(0, last - subscriber["acked"])
        return section

    def _throttling_section(self) -> Optional[Dict[str, Any]]:
        if self._config.throttle_rate <= 0.0:
            return None
        return {
            "rate": self._config.throttle_rate,
            "burst": self._config.throttle_burst,
            "throttled_publishes": self._throttled_publishes,
            "total_wait": round(self._throttle_waited, 6),
            "buckets": {
                session_id: bucket.snapshot()
                for session_id, bucket in sorted(self._buckets.items())
            },
        }

    def _telemetry_section(self, counters: Dict[str, int]) -> Dict[str, Any]:
        """One unified telemetry view: engine stages, serving-pipeline
        stages, span accounting, and the derived filtering-effectiveness
        gauges."""
        snapshot = self._engine.telemetry_snapshot()
        if snapshot is None:
            snapshot = empty_snapshot()
        stages = dict(snapshot["stages"])
        for stage, histogram in self._pipeline.items():
            stages[stage] = histogram.to_wire()
        return {
            "stages": stages,
            "spans": snapshot["spans"],
            "effectiveness": effectiveness_gauges(counters),
        }

    def _metrics_text(self) -> str:
        """The ``metrics`` op payload: Prometheus text exposition."""
        counters = self._engine.counters.as_dict()
        telemetry = self._telemetry_section(counters)
        gauges = {
            "repro_ingest_queue_depth": (
                self._ingest.qsize() if self._ingest else 0
            ),
            "repro_sessions_open": len(self._sessions),
        }
        subscribers = self._subscribers_section()
        if subscribers is not None:
            # The slow-consumer view: how far the worst durable
            # subscriber trails the log, how close its outbox is to
            # overflowing, and what has already overflowed or expired.
            states = subscribers["subscribers"]
            gauges["repro_subscriber_lag_max"] = max(
                (state["lag"] for state in states), default=0
            )
            gauges["repro_outbox_depth_max"] = max(
                (state["outbox_depth"] for state in states), default=0
            )
            gauges["repro_dead_lettered_total"] = sum(
                state["dead_lettered"] for state in states
            )
        return render_exposition(
            counters,
            telemetry["stages"],
            telemetry["spans"],
            telemetry["effectiveness"],
            gauges=gauges,
        )

    # -- transport-facing dispatch ----------------------------------------

    async def submit_request(
        self, session: Optional[SubscriberSession], payload: object
    ) -> "PendingReply":
        """First half of a protocol request: parse it and queue its work.

        Every op enters the runtime here, so nothing reaches the queue or
        the event log without passing :func:`parse_request`.  ``session``
        is the caller's session; ``None`` (the simulation harness's
        anonymous ops) owns nothing, is not throttled and may unsubscribe
        any query.

        Suspends only for the session's publish throttle or a full
        ingest queue, so a transport that submits one connection's
        requests from a single task gets them into the matcher's FIFO in
        the order they were read — it may read ahead without waiting for
        replies.  Ops the matcher does not execute (``ack``, ``stats``,
        ``metrics``, ``dlq``) queue nothing here; they run in
        :meth:`complete_request`, i.e. when the transport reaches them in
        reply order, so a ``stats`` sent after a publish still reflects
        it.
        """
        reply_to = payload.get("id") if isinstance(payload, dict) else None
        try:
            request = parse_request(payload)
            op = request["op"]
            future = None
            if op == "publish":
                future = await self._enqueue_publish(session, request)
            elif op == "subscribe":
                keywords = request.get("keywords")
                if keywords is None:
                    from repro.text.tokenizer import tokenize

                    keywords = tokenize(request["text"])
                if session is not None:
                    session.subscribed = True
                future = await self._enqueue_control(
                    "subscribe",
                    session,
                    (keywords, request.get("location"), request.get("window")),
                )
            elif op in ("unsubscribe", "results"):
                future = await self._enqueue_control(
                    op, session, request["query_id"]
                )
            elif op == "resume":
                self._require_eventlog("resume")
                if session is None:
                    raise ReproError("resume requires a session")
                future = await self._enqueue_control(
                    "resume",
                    session,
                    (request["subscriber"], request.get("offset")),
                )
        except ReproError as exc:
            return PendingReply(reply_to, error=exc)
        return PendingReply(reply_to, session, request, future)

    async def complete_request(self, pending: "PendingReply") -> Dict[str, Any]:
        """Second half: wait for the queued work and phrase the reply.

        Always returns a reply dict for a :class:`ReproError`; anything
        else the engine raised propagates to the transport.
        """
        if pending.error is not None:
            return error_reply(pending.error, pending.reply_to)
        try:
            result = None
            if pending.future is not None:
                result = await pending.future
            return ok_reply(
                pending.reply_to,
                **self._reply_fields(pending.session, pending.request, result),
            )
        except ReproError as exc:
            return error_reply(exc, pending.reply_to)

    def _reply_fields(
        self, session: SubscriberSession, request: Dict[str, Any], result: Any
    ) -> Dict[str, Any]:
        """The op-specific fields of a successful reply.

        ``result`` is what the matcher resolved the request's queued
        item with; ops that queued nothing are executed here.
        """
        op = request["op"]
        if op == "publish":
            return result
        if op == "subscribe":
            query_id, initial = result
            return {
                "query_id": query_id,
                "initial": [document_payload(doc) for doc in initial],
            }
        if op == "unsubscribe":
            return {"query_id": request["query_id"]}
        if op == "results":
            return {
                "query_id": request["query_id"],
                "results": [document_payload(doc) for doc in result],
            }
        if op == "ack":
            return self._ack(session, request["offset"])
        if op == "dlq":
            return self._dlq_report(request.get("limit"))
        if op == "metrics":
            return {"metrics": self._metrics_text()}
        if op == "stats":
            return {"stats": self.stats()}
        # resume: like publish, the matcher's result already is the
        # reply's fields.
        return result

    async def handle_request(
        self, session: Optional[SubscriberSession], payload: object
    ) -> Dict[str, Any]:
        """Execute one protocol request; always returns a reply dict."""
        return await self.complete_request(
            await self.submit_request(session, payload)
        )

    # -- matcher ----------------------------------------------------------

    async def _matcher_loop(self) -> None:
        cap = self._config.max_batch_size
        while True:
            item = await self._ingest.get()
            if item is _STOP:
                return
            if self._failure is not None:
                _refuse(item, self._failure)
                continue
            held = None
            if isinstance(item, _PublishItem):
                # Group commit: everything that queued up while the last
                # batch matched goes through one append/fsync, one
                # publish_batch and one routing pass.  A control item
                # ends the batch (it is a barrier) and runs right after
                # it.
                batch = [item]
                while len(batch) < cap and not self._ingest.empty():
                    held = self._ingest.get_nowait()
                    if not isinstance(held, _PublishItem):
                        break
                    batch.append(held)
                    held = None
                # ``held`` left the queue too: stop() must still find it.
                self._inflight = batch + [held]
                try:
                    await self._run_publish_batch(batch)
                except Exception as exc:
                    # One poisoned batch must not kill the matcher (and
                    # with it every queued future): fail this batch's
                    # futures and keep serving — or, fail-stopped,
                    # refuse everything after it.
                    self._matcher_errors += 1
                    for failed in batch:
                        _refuse(failed, exc)
                self._inflight.clear()
                self._batches.record(len(batch))
            else:
                held = item
            if held is _STOP:
                return
            if held is not None and self._failure is not None:
                _refuse(held, self._failure)
            elif held is not None:
                self._inflight = [held]
                await self._run_control(held)
                self._inflight.clear()
            if self._eventlog is not None and self._failure is None:
                # Fail-stopped, the engine lags the log: a checkpoint
                # now would let recovery skip the unmatched batch.
                self._maybe_checkpoint()
            # Engine calls never suspend, and neither does ``get()`` while
            # items are queued: without this yield the matcher would drain
            # the whole queue before any transport or consumer task ran.
            await asyncio.sleep(0)

    async def _run_control(self, item: _ControlItem) -> None:
        try:
            if item.kind == "subscribe":
                terms, location, window = item.args
                session = item.session
                query_id = self._next_query_id()
                # Only a resumed session names a subscriber, and resume
                # requires the event log.
                name = session.subscriber if session is not None else None
                initial = self._commit(
                    subscribe_record(query_id, terms, name, location, window)
                )
                self._owners[query_id] = session
                if session is not None:
                    session.queries.add(query_id)
                result = (query_id, initial)
            elif item.kind == "unsubscribe":
                query_id = item.args
                owner = self._owners.get(query_id)
                if item.session is not None and owner is not item.session:
                    # A durable subscriber may unsubscribe its own
                    # (re-attached) queries even while routing lags.
                    name = item.session.subscriber
                    if name is None or self._registry.owner_of(query_id) != name:
                        raise UnknownQueryError(
                            f"query {query_id} is not owned by this session"
                        )
                self._unsubscribe(query_id)
                result = None
            elif item.kind == "resume":
                result = await self._resume(item.session, item.args)
            elif item.kind == "eventlog_checkpoint":
                result = self._write_eventlog_checkpoint()
            elif item.kind == "results":
                if self._injector is not None:
                    self._injector.fire("engine.results")
                result = self._engine.results(item.args)
            elif item.kind == "retire":
                self._retire_queries(item.session)
                result = None
            else:  # pragma: no cover - internal invariant
                raise ReproError(f"unknown control kind {item.kind!r}")
        except Exception as exc:
            if not item.future.done():
                item.future.set_exception(exc)
        else:
            if not item.future.done():
                item.future.set_result(result)

    async def _run_publish_batch(self, items: List[_PublishItem]) -> None:
        """Append, match, route and ack one batch.  A failure before the
        documents are in the engine propagates and fails the batch; one
        after is a delivery error, and the acks still resolve.  A failure
        between the append and the end of the match also fail-stops a
        durable runtime: the log now holds a batch the engine does not
        (or holds in part), so nothing more is served until a restart
        replays it."""
        dequeued_at = self._timer()
        ingest_histogram = self._pipeline["ingest_queue"]
        prepared = []
        for item in items:
            ingest_histogram.observe(
                max(0.0, dequeued_at - item.enqueued_at)
            )
            doc_id = self._next_doc_id
            self._next_doc_id += 1
            if item.created_at is not None:
                timestamp = max(float(item.created_at), self._last_created_at)
            else:
                timestamp = max(self._now(), self._last_created_at)
            self._last_created_at = timestamp
            prepared.append((item, doc_id, timestamp))
            self._accepted += 1

        offsets: Optional[List[int]] = None
        payloads: Dict[int, Dict[str, Any]] = {}
        notify_started: Optional[float] = None

        def matched() -> None:
            nonlocal notify_started
            self._pipeline["micro_batch"].observe(
                max(0.0, self._timer() - batch_started)
            )
            self._published += len(documents)
            notify_started = self._timer()

        try:
            documents = [
                item.document(doc_id, timestamp)
                for item, doc_id, timestamp in prepared
            ]
            if self._eventlog is not None:
                # WAL discipline: the batch's records are durable *before*
                # the engine matches it, in one append (one fsync).
                payloads = {
                    document.doc_id: document_payload(document)
                    for document in documents
                }
                append_started = self._timer()
                offsets = self._append(
                    [publish_record(payload) for payload in payloads.values()]
                )
                self._pipeline["eventlog_append"].observe(
                    max(0.0, self._timer() - append_started)
                )
            if self._injector is not None:
                if self._eventlog is not None:
                    # The post-append / pre-match crash window: a fault
                    # here loses nothing — the records are durable and
                    # recovery replays them (at-least-once for in-doubt
                    # publishes).
                    self._injector.fire("eventlog.match")
                self._injector.fire("engine.publish_batch")
            batch_started = self._timer()
            kept = apply_publishes(
                self._engine,
                self._registry,
                documents,
                offsets,
                payloads,
                matched,
            )
            await self._route(kept, payloads)
        except Exception:
            if notify_started is None:
                if offsets is not None:
                    self._failure = ServerClosedError(
                        "runtime failed: a logged batch did not match; "
                        "restart to recover it"
                    )
                    if self._state == "running":
                        self._state = "failed"
                raise
            # Delivery failures must not fail the publish acks: the
            # documents *are* in the engine.  Count and move on.
            self._delivery_errors += 1
        finally:
            if notify_started is not None:
                self._pipeline["notify"].observe(
                    max(0.0, self._timer() - notify_started)
                )
        for index, (item, doc_id, timestamp) in enumerate(prepared):
            if not item.future.done():
                ack = {"doc_id": doc_id, "created_at": timestamp}
                if offsets is not None:
                    ack["offset"] = offsets[index]
                item.future.set_result(ack)

    async def _route(
        self,
        kept: List[Tuple[Notification, Optional[int], Optional[Dict]]],
        payloads: Dict[int, Dict[str, Any]],
    ) -> None:
        """Fan what :func:`apply_publishes` returned out to the owning
        sessions.  A payload a durable outbox kept is shared with the
        session queue (neither mutates it); the others are built here
        from ``payloads`` (doc id -> document payload, filled in as
        needed), so a document is serialised once per batch however many
        queries it reaches or leaves.  Coalescing sessions receive one
        result-set snapshot per touched query per batch instead."""
        touched: Dict[int, List[int]] = {}
        for notification, offset, payload in kept:
            session = self._owners.get(notification.query_id)
            if session is None or session.closed:
                continue
            if session.policy == "coalesce":
                queries = touched.setdefault(session.session_id, [])
                if notification.query_id not in queries:
                    queries.append(notification.query_id)
                continue
            if payload is None:
                payload = notification_payload(notification, offset, payloads)
            delivered = await session.offer(payload, notification.query_id)
            if delivered and offset is not None:
                session.delivered_offset = max(
                    session.delivered_offset, offset
                )
            if not delivered and session.closed:
                self._disconnect_session(session)
        for session_id, query_ids in touched.items():
            session = self._sessions.get(session_id)
            if session is None or session.closed:
                continue
            for query_id in query_ids:
                if self._owners.get(query_id) is not session:
                    continue
                if self._injector is not None:
                    self._injector.fire("engine.results")
                delivered = await session.offer(
                    snapshot_payload(query_id, self._engine.results(query_id)),
                    query_id,
                )
                if not delivered and session.closed:
                    self._disconnect_session(session)
                    break

    def _disconnect_session(self, session: SubscriberSession) -> None:
        """A slow-consumer disconnect: drop its subscriptions and retire.

        Durable subscribers detach instead — the outage is exactly what
        their retained outbox exists for.
        """
        if session.session_id not in self._sessions:
            return
        self._disconnects += 1
        if session.subscriber is not None:
            self._detach_subscriber(session)
        else:
            self._retire_queries(session)
        self._remove_session(session)

    def _retire_queries(self, session: SubscriberSession) -> None:
        """Unsubscribe every query a closing session owns (matcher ctx).

        Each retirement is logged like any unsubscribe, so recovery does
        not resurrect queries whose anonymous owner is gone.
        """
        for query_id in list(session.queries):
            if self._owners.get(query_id) is session:
                self._unsubscribe(query_id)
        session.queries.clear()

    def _unsubscribe(self, query_id: int) -> None:
        """Log and apply one unsubscribe, then stop routing the query."""
        registry = self._registry
        owner = registry.owner_of(query_id) if registry is not None else None
        self._commit(unsubscribe_record(query_id, subscriber=owner))
        session = self._owners.pop(query_id, None)
        if session is not None:
            session.queries.discard(query_id)

    def _commit(self, record: Dict[str, Any]) -> Any:
        """Refuse, log, count and apply one subscribe, unsubscribe or ack
        record; returns what :func:`apply_record` — the function recovery
        replays the log with — returns.  Only a record
        :func:`check_record` passes is written; without the event log the
        same steps run, minus the append."""
        check_record(self._engine, record)
        if self._eventlog is not None:
            self._append([record])
        return apply_record(self._engine, self._registry, None, record)

    def _append(self, records: List[Dict[str, Any]]) -> List[int]:
        """Append ``records`` as one durability unit (one flush, and one
        fsync under ``always``) and count them toward the next
        auto-checkpoint; returns their offsets."""
        offsets = self._eventlog.append_many(records)
        self._appended_since_checkpoint += len(offsets)
        return offsets

    # -- durability tier (DESIGN.md §14) -----------------------------------

    async def _resume(
        self, session: SubscriberSession, args: Tuple[str, Optional[int]]
    ) -> Dict[str, Any]:
        """Matcher-side ``resume``: attach, restore ownership, replay.

        Runs behind the batch barrier, so every notification generated
        before this point is either in the replayed outbox suffix or
        below the resume offset — the client's stream has no gap and no
        duplicate at the splice point.
        """
        name, offset = args
        if session.closed:
            # The connection dropped with this resume still queued: its
            # close already ran (and found nothing to detach), so
            # attaching now would bind the subscriber to a dead session.
            raise ServerClosedError("session closed before it resumed")
        if offset is not None:
            # Resuming acks ``offset``: refused before the subscriber is
            # created, attached or anything is logged.
            self._require_logged("resume", offset)
        state = self._registry.get_or_create(name)
        if state.session_id is not None and state.session_id != session.session_id:
            live = self._sessions.get(state.session_id)
            if live is not None and not live.closed:
                raise ReproError(
                    f"subscriber {name!r} is already attached to another "
                    f"session"
                )
        if session.subscriber is not None and session.subscriber != name:
            raise ReproError(
                f"session already resumed as {session.subscriber!r}"
            )
        self._registry.attach(name, session.session_id)
        session.subscriber = name
        for query_id in state.queries:
            self._owners[query_id] = session
            session.queries.add(query_id)
        if offset is not None and offset >= 0:
            self._ack(session, offset)
        replayed = 0
        for entry in self._registry.pending(name, offset):
            delivered = await session.offer(
                dict(entry["payload"]), entry["query_id"]
            )
            if not delivered:
                break
            replayed += 1
            session.delivered_offset = max(
                session.delivered_offset, entry["offset"]
            )
        return {
            "subscriber": name,
            "acked": state.acked,
            "queries": sorted(state.queries),
            "replayed": replayed,
        }

    def _maybe_checkpoint(self) -> None:
        """Auto-checkpoint after every N appended records (matcher ctx).

        A failed checkpoint (including an injected ``checkpoint.write``
        fault) is counted, never fatal: the log still holds everything,
        recovery just replays a longer suffix.
        """
        every = self._config.eventlog_checkpoint_every
        if every <= 0 or self._appended_since_checkpoint < every:
            return
        try:
            self._write_eventlog_checkpoint()
        except Exception:
            self._checkpoint_errors += 1
            self._appended_since_checkpoint = 0

    def _write_eventlog_checkpoint(self) -> Dict[str, Any]:
        """Checkpoint engine + registry at the current log end, then
        drop the log segments the checkpoint made redundant."""
        offset = self._eventlog.end
        write_checkpoint(
            self._config.eventlog_dir,
            offset,
            checkpoint(self._engine),
            self._registry.snapshot(),
            injector=self._injector,
            fsync=self._config.eventlog_fsync,
        )
        before = self._eventlog.reclaimed_bytes
        self._eventlog.truncate_to(offset)
        self._checkpoint_offset = offset
        self._appended_since_checkpoint = 0
        self._checkpoints_written += 1
        return {
            "offset": offset,
            "checkpoints": self._checkpoints_written,
            "log_base": self._eventlog.base,
            "reclaimed_bytes": self._eventlog.reclaimed_bytes - before,
        }
