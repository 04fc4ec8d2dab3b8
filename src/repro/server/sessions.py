"""Per-subscriber delivery sessions with bounded queues.

A :class:`SubscriberSession` is the server side of one subscriber
connection (TCP or in-process): it owns the subscriber's query ids and a
bounded outbound queue of protocol messages.  The matcher task *offers*
messages; the transport *pulls* them with :meth:`next_message`.

The queue bound is where slow consumers meet the matcher, and the
session's policy decides what gives (see
:data:`repro.config.SLOW_CONSUMER_POLICIES`): ``block`` applies
backpressure all the way to publishers, ``drop_oldest`` sheds the
stalest message, ``coalesce`` collapses queued updates into one
result-set snapshot per query, and ``disconnect`` kicks the consumer.
Drop/coalesce/disconnect counts are exact and surface in the runtime's
stats.

All methods run on the event-loop thread; no locks beyond the per-session
:class:`asyncio.Condition` are needed.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set

from repro.config import SLOW_CONSUMER_POLICIES
from repro.server.protocol import closed_payload

#: Queue entries are ``[query_id, payload]`` lists so a coalescing
#: session can swap the payload of a still-queued entry in place.
_QUERY = 0
_PAYLOAD = 1


class SubscriberSession:
    """One subscriber's delivery queue, policy, and query ownership."""

    def __init__(
        self,
        session_id: int,
        capacity: int,
        policy: str,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if policy not in SLOW_CONSUMER_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; expected one of "
                f"{SLOW_CONSUMER_POLICIES}"
            )
        self.session_id = session_id
        self.capacity = capacity
        self.policy = policy
        #: Query ids owned (subscribed) by this session.
        self.queries: Set[int] = set()
        #: Set once a subscribe is submitted for this session: closing it
        #: must then retire behind whatever that subscribe registers,
        #: even if the matcher has not reached it yet.
        self.subscribed = False
        #: Durable subscriber name this session resumed as (eventlog
        #: tier); None for anonymous sessions whose queries retire with
        #: the connection.
        self.subscriber: Optional[str] = None
        #: Highest event-log offset enqueued to this session (-1 = none).
        self.delivered_offset = -1
        #: Highest offset the client explicitly acked on this session.
        self.acked_offset = -1
        self._items: Deque[List[Any]] = deque()
        #: coalesce only: query id -> its still-queued entry.
        self._pending: Dict[int, List[Any]] = {}
        self._cond = asyncio.Condition()
        self.closed = False
        self.close_reason: Optional[str] = None
        self._close_delivered = False
        #: Simulation hook: a stalled session stops pulling messages, so
        #: its queue fills and the slow-consumer policy kicks in.  The
        #: matcher side (:meth:`offer`) is unaffected.
        self.stalled = False
        # -- exact accounting ------------------------------------------
        self.enqueued = 0
        self.delivered = 0
        self.dropped = 0
        self.coalesced = 0

    # -- matcher side -----------------------------------------------------

    async def offer(
        self, payload: Dict[str, Any], query_id: Optional[int] = None
    ) -> bool:
        """Enqueue one message under this session's policy.

        Returns False when the message was not enqueued because the
        session is (or just became) closed.  Only the ``block`` policy
        can suspend the caller.
        """
        async with self._cond:
            if self.closed:
                return False
            if self.policy == "coalesce" and query_id is not None:
                entry = self._pending.get(query_id)
                if entry is not None:
                    # Collapse onto the queued snapshot; its slot keeps
                    # the original queue position (oldest-update order).
                    payload = dict(payload)
                    payload["coalesced"] = (
                        entry[_PAYLOAD].get("coalesced", 0) + 1
                    )
                    entry[_PAYLOAD] = payload
                    self.coalesced += 1
                    self._cond.notify_all()
                    return True
            if len(self._items) >= self.capacity:
                if self.policy == "block":
                    while len(self._items) >= self.capacity and not self.closed:
                        await self._cond.wait()
                    if self.closed:
                        return False
                elif self.policy == "disconnect":
                    self._close_locked("slow_consumer")
                    return False
                else:  # drop_oldest, or coalesce over capacity
                    victim = self._items.popleft()
                    if victim[_QUERY] is not None:
                        self._pending.pop(victim[_QUERY], None)
                    self.dropped += 1
            entry = [query_id, payload]
            self._items.append(entry)
            if self.policy == "coalesce" and query_id is not None:
                self._pending[query_id] = entry
            self.enqueued += 1
            self._cond.notify_all()
            return True

    # -- transport side ---------------------------------------------------

    async def next_message(self) -> Optional[Dict[str, Any]]:
        """Pull the next message, waiting while the queue is empty.

        After the session closes, remaining queued messages are still
        delivered, followed by one ``{"op": "closed"}`` message, then
        ``None`` forever.
        """
        async with self._cond:
            while not self.closed and (self.stalled or not self._items):
                await self._cond.wait()
            if self._items:
                entry = self._items.popleft()
                if entry[_QUERY] is not None:
                    pending = self._pending.get(entry[_QUERY])
                    if pending is entry:
                        del self._pending[entry[_QUERY]]
                self.delivered += 1
                self._cond.notify_all()
                return entry[_PAYLOAD]
            if not self._close_delivered:
                self._close_delivered = True
                return closed_payload(self.close_reason or "closed")
            return None

    # -- lifecycle --------------------------------------------------------

    def _close_locked(self, reason: str) -> None:
        self.closed = True
        self.close_reason = reason
        self._cond.notify_all()

    async def close(self, reason: str = "closed") -> None:
        """Mark the session closed; wakes both producers and consumers."""
        async with self._cond:
            if not self.closed:
                self._close_locked(reason)

    async def set_stalled(self, stalled: bool) -> None:
        """Simulate a consumer stall (True) or wake it back up (False)."""
        async with self._cond:
            self.stalled = stalled
            if not stalled:
                self._cond.notify_all()

    async def drain(self, timeout: float) -> bool:
        """Wait until the consumer emptied the queue; False on timeout."""

        async def _empty() -> None:
            async with self._cond:
                while self._items:
                    await self._cond.wait()

        try:
            await asyncio.wait_for(_empty(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    # -- observability ----------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._items)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "session_id": self.session_id,
            "policy": self.policy,
            "capacity": self.capacity,
            "depth": self.depth,
            "queries": len(self.queries),
            "enqueued": self.enqueued,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "coalesced": self.coalesced,
            "closed": self.closed,
            "close_reason": self.close_reason,
            "stalled": self.stalled,
            "subscriber": self.subscriber,
            "delivered_offset": self.delivered_offset,
            "acked_offset": self.acked_offset,
        }

    def __repr__(self) -> str:
        state = f"closed:{self.close_reason}" if self.closed else "open"
        return (
            f"SubscriberSession(id={self.session_id}, policy={self.policy}, "
            f"depth={self.depth}/{self.capacity}, {state})"
        )
