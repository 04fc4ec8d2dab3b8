"""Newline-delimited-JSON TCP transport (``asyncio.start_server``).

One connection = one subscriber session.  The client sends request lines
(`subscribe`/`unsubscribe`/`publish`/`results`/`stats`); the server
writes reply lines and, interleaved, pushes `notify`/`snapshot`/`closed`
lines from the session's delivery queue.  A per-connection write lock
keeps reply and push lines from interleaving mid-line.

A connection is a pipeline, not a call: a client may write any number of
requests without awaiting replies.  The server reads ahead (at most
``ServerConfig.max_batch_size`` requests wait behind the one being
answered; past that it stops reading and TCP pushes back), executes one
connection's requests in the order it read them, and writes their
replies in that same order — so pipelined publishes reach the matcher
together and share one micro-batch.

Request dispatch, error replies, and slow-consumer behaviour all live in
:class:`~repro.server.runtime.ServerRuntime` and
:class:`~repro.server.sessions.SubscriberSession`; this module only does
framing and connection lifecycle.  :class:`NdjsonTcpClient` is the
reference client used by the tests, the README quickstart and the
``serve`` CLI's documentation.
"""

from __future__ import annotations

import asyncio
import random
from contextlib import suppress
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import InjectedFaultError, ProtocolError
from repro.server.protocol import (
    ProtocolClient,
    decode_line,
    encode_line,
    error_reply,
    raise_for_reply,
)
from repro.server.runtime import PendingReply, ServerRuntime

#: Refuse request lines longer than this (protects the reader buffer).
MAX_LINE_BYTES = 1 << 20


class NdjsonTcpServer:
    """NDJSON TCP front-end for a :class:`ServerRuntime`."""

    def __init__(self, runtime: ServerRuntime) -> None:
        self._runtime = runtime
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()
        self.address: Optional[Tuple[str, int]] = None

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._runtime.config.host,
            self._runtime.config.port,
            limit=MAX_LINE_BYTES,
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def stop(self) -> None:
        """Stop listening and tear down the remaining connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        for task in list(self._connections):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._connections.clear()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # -- connection handling ----------------------------------------------

    async def _write_frame(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        payloads: List[Dict[str, Any]],
    ) -> bool:
        """Write NDJSON frames with one ``write`` and one ``drain``;
        False ends the caller's loop.

        The frames share one :func:`encode_line` memo, so a document
        payload several of them carry is serialised once.  Each frame is
        still encoded by its own ``encode_line`` call made from here:
        the benchmark tracer attributes those calls to the server by
        this function's name.

        The ``tcp.write`` injection point fires once per frame and
        simulates a connection lost mid-frame: the frames before the
        faulting one are written, a ``torn`` fault adds half of its
        frame, and the transport closes.
        """
        memo: Dict[int, str] = {}
        injector = self._runtime.config.fault_injector
        frames = []
        for payload in payloads:
            data = encode_line(payload, memo)
            if injector is not None:
                try:
                    injector.fire("tcp.write")
                except InjectedFaultError as exc:
                    if getattr(exc, "action", "") == "torn":
                        frames.append(data[: len(data) // 2])
                    async with write_lock:
                        with suppress(BaseException):
                            writer.write(b"".join(frames))
                            await writer.drain()
                            writer.close()
                    return False
            frames.append(data)
        try:
            async with write_lock:
                writer.write(b"".join(frames))
                await writer.drain()
        except (ConnectionError, OSError, RuntimeError):
            # A peer that vanished mid-frame surfaces as ConnectionError,
            # a raw socket failure as OSError, and a write on an
            # already-closing transport as RuntimeError — all of them
            # mean "this connection is done", none may escape into the
            # caller's loop.
            return False
        return True

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            session = self._runtime.open_session()
        except Exception:
            # Runtime already draining/stopped: refuse the connection.
            with suppress(BaseException):
                writer.close()
                await writer.wait_closed()
            self._connections.discard(task)
            return
        write_lock = asyncio.Lock()
        pusher = asyncio.create_task(
            self._push_loop(session, writer, write_lock)
        )
        # The connection is a pipeline: this task reads and *submits*
        # requests in arrival order, the replier answers them in the
        # same order.  A full window suspends the reader, which is TCP
        # backpressure on a client that pipelines faster than the
        # matcher drains.
        window: asyncio.Queue = asyncio.Queue(
            self._runtime.config.max_batch_size
        )
        replier = asyncio.create_task(
            self._reply_loop(window, writer, write_lock)
        )
        pending: Optional[PendingReply] = None
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                    ConnectionError,
                    OSError,
                ):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    payload = decode_line(line)
                    pending = await self._runtime.submit_request(
                        session, payload
                    )
                except Exception as exc:
                    # A malformed line, or something submit_request did
                    # not expect (it converts ReproError itself): the
                    # request still gets an error frame, in its place in
                    # the reply order, instead of killing the connection
                    # (and leaking the session) silently.
                    pending = PendingReply(None, error=exc)
                await window.put(pending)
                pending = None
        except asyncio.CancelledError:
            # Server stop(): end the connection quietly; teardown
            # happens in the finally block.
            pass
        finally:
            try:
                # If this connection ever submitted a subscribe, its
                # retirement queues behind everything it submitted: the
                # requests still in flight are applied (exactly once)
                # before its queries — including one a still-queued
                # subscribe is about to register — go away.
                await self._runtime.close_session(session)
            except (Exception, asyncio.CancelledError):
                pass
            replier.cancel()
            pusher.cancel()
            for helper in (replier, pusher):
                with suppress(BaseException):
                    await helper
            # Replies nobody will read any more: the one cut off between
            # submit and the window, and those still queued in it.
            if pending is not None:
                pending.abandon()
            while not window.empty():
                window.get_nowait().abandon()
            with suppress(BaseException):
                writer.close()
                await writer.wait_closed()
            self._connections.discard(task)

    async def _reply_loop(
        self,
        window: asyncio.Queue,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        """Answer submitted requests in the order they were read.

        When a reply cannot be written the transport is closed (the
        reader then sees EOF and tears the connection down), but the
        loop keeps consuming: a reader blocked on a full window must not
        wedge, and every outcome still gets retrieved.
        """
        connected = True
        while True:
            pending = await window.get()
            try:
                reply = await self._runtime.complete_request(pending)
            except Exception as exc:
                reply = error_reply(exc, pending.reply_to)
            if connected and not await self._write_frame(
                writer, write_lock, [reply]
            ):
                connected = False
                with suppress(BaseException):
                    writer.close()

    async def _push_loop(
        self,
        session,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        """Forward session pushes to the socket until the session ends:
        each wake-up pulls every queued message and writes them at once.

        On exit the transport is closed: when a push write fails on a
        half-closed socket, the reader side of the connection may still
        be blocked in ``readline`` on a peer that will never send again.
        Closing the transport forces that read to EOF, so the
        connection handler retires the session — otherwise the session
        leaks and, under the ``block`` policy, the matcher can wedge
        forever on a delivery queue nobody drains.
        """
        try:
            while True:
                messages = await session.next_messages()
                if not messages:
                    break
                if not await self._write_frame(writer, write_lock, messages):
                    break
        finally:
            with suppress(BaseException):
                writer.close()


class NdjsonTcpClient(ProtocolClient):
    """Reference NDJSON client: request/reply plus a push mailbox; its op
    methods are :class:`~repro.server.protocol.ProtocolClient`'s.

    Usage::

        client = await NdjsonTcpClient.connect("127.0.0.1", 8765)
        reply = await client.subscribe(["coffee", "espresso"])
        await client.publish(text="fresh espresso downtown")
        note = await client.next_message(timeout=5.0)  # {"op": "notify", ...}
        await client.close()

    With ``reconnect=True`` a dropped connection is re-dialled with
    bounded exponential backoff plus jitter; requests in flight when the
    connection died fail with :class:`ConnectionError` (the caller
    decides whether to retry), requests issued while disconnected wait
    for the new connection.  Tracked subscriptions are re-issued after a
    successful reconnect; because the server assigns fresh query ids,
    the old->new mapping is exposed as ``resubscriptions`` and the
    ``reconnects``/``resubscribed`` counters in
    :meth:`connection_stats`.

    The resubscribe path is inherently lossy: fresh query ids, and every
    notification generated during the outage is gone.  Against a server
    running the durability tier, pass ``subscriber="name"`` (or call
    :meth:`resume` once) instead: after each reconnect the client issues
    a ``resume`` carrying the highest event-log offset it has seen, the
    server re-attaches the *same* query ids, and the retained
    notifications from the outage window are replayed in order — no loss
    and no duplicates.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        host: Optional[str] = None,
        port: Optional[int] = None,
        reconnect: bool = False,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        max_retries: int = 6,
        jitter_seed: int = 0,
        subscriber: Optional[str] = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._host = host
        self._port = port
        self._reconnect = reconnect and host is not None
        self._backoff_base = backoff_base
        self._backoff_max = backoff_max
        self._max_retries = max_retries
        self._jitter = random.Random(jitter_seed)
        self._closed = False
        self._connected = asyncio.Event()
        self._connected.set()
        self._next_request_id = 0
        self._pending: Dict[int, asyncio.Future] = {}
        self._messages: asyncio.Queue = asyncio.Queue()
        #: query_id -> the subscribe payload that created it (re-issued
        #: verbatim after a reconnect).
        self._subscriptions: Dict[int, Dict[str, Any]] = {}
        self._resub_task: Optional[asyncio.Task] = None
        #: Durable subscriber identity; set via the option or resume().
        self._subscriber = subscriber
        self.reconnects = 0
        self.resubscribed = 0
        self.resumed = 0
        self.resubscriptions: Dict[int, int] = {}
        self._reader_task = asyncio.create_task(self._read_loop())
        if subscriber is not None:
            # Attach on first use: the initial resume rides the same
            # task machinery as the post-reconnect ones.
            self._resub_task = asyncio.create_task(
                self._resume_after_reconnect()
            )

    @classmethod
    async def connect(
        cls, host: str, port: int, **options: Any
    ) -> "NdjsonTcpClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES
        )
        return cls(reader, writer, host=host, port=port, **options)

    async def _read_line(self) -> bytes:
        """One line from the current reader; connection failures are EOF."""
        try:
            return await self._reader.readline()
        except (
            ConnectionError,
            OSError,
            ValueError,
            asyncio.LimitOverrunError,
            asyncio.IncompleteReadError,
        ):
            return b""

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._read_line()
                if not line:
                    if await self._handle_disconnect():
                        continue
                    break
                try:
                    payload = decode_line(line)
                except ProtocolError:
                    continue
                if "ok" in payload:
                    future = self._pending.pop(payload.get("reply_to"), None)
                    if future is not None and not future.done():
                        future.set_result(payload)
                else:
                    self._saw(payload)
                    await self._messages.put(payload)
        finally:
            self._connected.set()
            await self._messages.put(None)
            self._fail_pending(
                ConnectionError("server closed the connection")
            )

    def _fail_pending(self, exc: Exception) -> None:
        pending = list(self._pending.values())
        self._pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(exc)

    async def _handle_disconnect(self) -> bool:
        """Re-dial after a dropped connection; True resumes the read loop.

        In-flight requests fail immediately (their replies are lost with
        the old connection); new requests block on ``_connected`` until
        the dial succeeds.  Backoff is ``base * 2**attempt`` capped at
        ``backoff_max``, scaled by a deterministic jitter factor in
        ``[0.5, 1.5)`` so a fleet of clients does not re-dial in
        lockstep.
        """
        self._fail_pending(ConnectionError("connection lost"))
        if self._closed or not self._reconnect:
            return False
        self._connected.clear()
        for attempt in range(self._max_retries):
            delay = min(self._backoff_max, self._backoff_base * (2 ** attempt))
            await asyncio.sleep(delay * (0.5 + self._jitter.random()))
            if self._closed:
                break
            try:
                reader, writer = await asyncio.open_connection(
                    self._host, self._port, limit=MAX_LINE_BYTES
                )
            except OSError:
                continue
            with suppress(BaseException):
                self._writer.close()
            self._reader = reader
            self._writer = writer
            self.reconnects += 1
            self._connected.set()
            if self._subscriber is not None:
                # Durable identity: splice the stream back together via
                # resume instead of lossy fresh-id resubscription.
                self._resub_task = asyncio.create_task(
                    self._resume_after_reconnect()
                )
            elif self._subscriptions:
                self._resub_task = asyncio.create_task(self._resubscribe())
            return True
        # Retries exhausted: give up for good.  Waking the waiters is
        # mandatory — request() re-checks _closed after the wait.
        self._closed = True
        self._connected.set()
        return False

    async def _resume_after_reconnect(self) -> None:
        """Re-attach the durable subscriber on the fresh connection.

        Carries ``last_offset`` so the server acks everything already
        seen and replays exactly the outage window — the notification
        stream continues with the original query ids, gap- and
        duplicate-free.
        """
        try:
            await self.resume(self._subscriber)
        except Exception:
            # Connection dropped again or the server refused; the next
            # reconnect pass retries.
            return

    async def _resubscribe(self) -> None:
        """Re-issue tracked subscriptions on the fresh connection; the
        replies' ids replace the old ones in one swap (a restarted server
        may hand out an id that is still an old key here)."""
        previous = list(self._subscriptions.items())
        renewed: Dict[int, Dict[str, Any]] = {}
        try:
            for old_id, payload in previous:
                reply = await self.request(dict(payload))
                renewed[reply["query_id"]] = payload
                self.resubscriptions[old_id] = reply["query_id"]
                self.resubscribed += 1
        except Exception:
            # The connection dropped again (or the server refused): the
            # next reconnect pass re-issues the whole old map.
            renewed = dict(previous)
        self._subscriptions = renewed

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        while True:
            if self._reconnect:
                await self._connected.wait()
            if self._closed:
                raise ConnectionError("client is closed")
            request_id = self._next_request_id
            self._next_request_id += 1
            framed = dict(payload)
            framed["id"] = request_id
            future = asyncio.get_running_loop().create_future()
            self._pending[request_id] = future
            try:
                self._writer.write(encode_line(framed))
                await self._writer.drain()
            except (ConnectionError, OSError, RuntimeError) as exc:
                self._pending.pop(request_id, None)
                if self._reconnect and not self._closed:
                    # The transport died under us before the reader
                    # noticed.  The line never completed, so resending
                    # after the dial-out cannot double-apply.
                    await asyncio.sleep(0.01)
                    continue
                raise ConnectionError(f"write failed: {exc}") from None
            reply = raise_for_reply(await future)
            self._track(payload, reply)
            return reply

    def _track(self, payload: Dict[str, Any], reply: Dict[str, Any]) -> None:
        """Remember what a reconnect re-issues: the subscriptions, or the
        durable identity that replaces them."""
        op = payload["op"]
        if op == "subscribe":
            self._subscriptions[reply["query_id"]] = payload
        elif op == "unsubscribe":
            self._subscriptions.pop(payload["query_id"], None)
        elif op == "resume":
            self._subscriber = payload["subscriber"]
            self.resumed += 1

    def connection_stats(self) -> Dict[str, Any]:
        """Reconnect/resubscribe accounting for stats surfaces."""
        return {
            "reconnects": self.reconnects,
            "resubscribed": self.resubscribed,
            "resubscriptions": dict(self.resubscriptions),
            "connected": self._connected.is_set() and not self._closed,
            "closed": self._closed,
            "tracked_subscriptions": len(self._subscriptions),
            "subscriber": self._subscriber,
            "resumed": self.resumed,
            "last_offset": self.last_offset,
        }

    def abort_connection(self) -> None:
        """Drop the live transport without closing the client.

        Chaos-harness hook: to a reconnecting client this is exactly a
        network partition — the reader hits EOF, pending requests fail
        with ``ConnectionError``, and the backoff dial-out takes over.
        """
        with suppress(BaseException):
            self._writer.close()

    async def send_raw(self, data: bytes) -> None:
        """Write raw bytes (tests use this for malformed lines)."""
        self._writer.write(data)
        await self._writer.drain()

    async def next_message(
        self, timeout: Optional[float] = None
    ) -> Optional[Dict[str, Any]]:
        """Next pushed message, or None once the connection ended."""
        if timeout is None:
            return await self._messages.get()
        return await asyncio.wait_for(self._messages.get(), timeout)

    async def close(self) -> None:
        self._closed = True
        if self._resub_task is not None:
            self._resub_task.cancel()
            with suppress(BaseException):
                await self._resub_task
        self._reader_task.cancel()
        with suppress(BaseException):
            await self._reader_task
        with suppress(BaseException):
            self._writer.close()
            await self._writer.wait_closed()
