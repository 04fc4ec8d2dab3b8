"""Durable subscriber identities: acked offsets + retained outboxes.

A *named* subscriber (the ``resume`` protocol op's ``subscriber``
field) survives its transport connection: the registry remembers which
query ids it owns, the highest global offset it has acked, and a bounded
outbox of every notification generated for it since that ack.  A
reconnecting or late-joining client resumes by name and replays exactly
the entries above its offset — same query ids, same payloads, no loss
and no duplicates.

Outbox entries carry an ``attempts`` counter bumped on every replay;
an entry replayed more than ``max_attempts`` times without an ack — N
consecutive delivery failures — is dead-lettered, as is the oldest entry
when the outbox overflows.  The registry snapshot rides inside the event
-log checkpoint so log truncation never strands un-acked deliveries.

Anonymous sessions (no ``resume``) behave exactly as before this layer
existed: their queries retire with the connection.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set

from repro.config import DEFAULT_OUTBOX_CAPACITY
from repro.errors import ReproError
from repro.eventlog.dlq import DeadLetterQueue


class SubscriberState:
    """One durable subscriber: queries, acked offset, retained outbox."""

    __slots__ = (
        "name",
        "queries",
        "acked",
        "outbox",
        "session_id",
        "buffered",
        "replayed",
        "dead_lettered",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        #: Ids of the queries it owns (the engine holds their terms).
        self.queries: Set[int] = set()
        #: Highest global offset this subscriber confirmed (-1 = none).
        self.acked = -1
        #: Retained ``{"offset", "query_id", "payload", "attempts"}``
        #: entries above ``acked``, oldest first (offsets ascend).
        self.outbox: Deque[Dict[str, Any]] = deque()
        #: Live session currently attached under this name (or None).
        self.session_id: Optional[int] = None
        self.buffered = 0
        self.replayed = 0
        self.dead_lettered = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "queries": sorted(self.queries),
            "acked": self.acked,
            "outbox_depth": len(self.outbox),
            "connected": self.session_id is not None,
            "buffered": self.buffered,
            "replayed": self.replayed,
            "dead_lettered": self.dead_lettered,
        }


class SubscriberRegistry:
    """All durable subscribers of one runtime (or one recovery pass)."""

    def __init__(
        self,
        outbox_capacity: int = DEFAULT_OUTBOX_CAPACITY,
        max_attempts: int = 3,
        dlq: Optional[DeadLetterQueue] = None,
    ) -> None:
        if outbox_capacity < 1:
            raise ReproError(
                f"outbox_capacity must be >= 1, got {outbox_capacity}"
            )
        if max_attempts < 1:
            raise ReproError(f"max_attempts must be >= 1, got {max_attempts}")
        self.outbox_capacity = outbox_capacity
        self.max_attempts = max_attempts
        self.dlq = dlq
        self._states: Dict[str, SubscriberState] = {}
        #: query_id -> owning subscriber name.
        self._owners: Dict[int, str] = {}

    # -- identity / ownership ---------------------------------------------

    def get(self, name: str) -> Optional[SubscriberState]:
        return self._states.get(name)

    def get_or_create(self, name: str) -> SubscriberState:
        state = self._states.get(name)
        if state is None:
            state = self._states[name] = SubscriberState(name)
        return state

    def names(self) -> List[str]:
        return sorted(self._states)

    def owner_of(self, query_id: int) -> Optional[str]:
        return self._owners.get(query_id)

    def record_subscribe(self, name: str, query_id: int) -> None:
        self.get_or_create(name).queries.add(int(query_id))
        self._owners[int(query_id)] = name

    def record_unsubscribe(self, query_id: int) -> None:
        name = self._owners.pop(int(query_id), None)
        if name is not None:
            self._states[name].queries.discard(int(query_id))

    def attach(self, name: str, session_id: int) -> None:
        self.get_or_create(name).session_id = session_id

    def detach(self, name: str) -> None:
        state = self._states.get(name)
        if state is not None:
            state.session_id = None

    # -- delivery retention ------------------------------------------------

    def offer(
        self, name: str, offset: int, query_id: int, payload: Dict[str, Any]
    ) -> None:
        """Retain one generated notification for ``name``.

        Entries at or below the acked offset are no-ops (recovery replay
        regenerates notifications the subscriber already confirmed).  On
        overflow the *oldest* entry is dead-lettered: the newest data
        stays deliverable and nothing vanishes silently.
        """
        state = self.get_or_create(name)
        if offset <= state.acked:
            return
        state.outbox.append(
            {
                "offset": int(offset),
                "query_id": int(query_id),
                "payload": payload,
                "attempts": 0,
            }
        )
        state.buffered += 1
        if len(state.outbox) > self.outbox_capacity:
            victim = state.outbox.popleft()
            self._dead_letter(state, victim, "overflow")

    def ack(self, name: str, offset: int) -> int:
        """Confirm delivery up to ``offset``; returns entries trimmed."""
        state = self.get_or_create(name)
        state.acked = max(state.acked, int(offset))
        trimmed = 0
        while state.outbox and state.outbox[0]["offset"] <= state.acked:
            state.outbox.popleft()
            trimmed += 1
        return trimmed

    def pending(
        self, name: str, offset: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Entries to replay above ``offset`` (default: the acked floor).

        Each returned entry's ``attempts`` is bumped — this *is* one
        redelivery attempt; entries over ``max_attempts`` are moved to
        the DLQ instead of being returned.
        """
        state = self.get_or_create(name)
        floor = state.acked if offset is None else max(int(offset), state.acked)
        replay: List[Dict[str, Any]] = []
        survivors: Deque[Dict[str, Any]] = deque()
        while state.outbox:
            entry = state.outbox.popleft()
            if entry["offset"] <= floor:
                continue
            entry["attempts"] += 1
            if entry["attempts"] > self.max_attempts:
                self._dead_letter(state, entry, "redelivery_exhausted")
                continue
            survivors.append(entry)
            replay.append(entry)
        state.outbox = survivors
        state.replayed += len(replay)
        return replay

    def _dead_letter(
        self, state: SubscriberState, entry: Dict[str, Any], reason: str
    ) -> None:
        state.dead_lettered += 1
        if self.dlq is not None:
            self.dlq.add(
                state.name,
                entry["offset"],
                entry.get("query_id"),
                entry["payload"],
                reason,
                entry["attempts"],
            )

    # -- checkpoint embedding ----------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe state for embedding in an event-log checkpoint."""
        return {
            "subscribers": [
                {
                    "name": state.name,
                    "acked": state.acked,
                    "queries": sorted(state.queries),
                    "outbox": [dict(entry) for entry in state.outbox],
                    "buffered": state.buffered,
                    "replayed": state.replayed,
                    "dead_lettered": state.dead_lettered,
                }
                for state in (
                    self._states[name] for name in sorted(self._states)
                )
            ]
        }

    def load(self, payload: Dict[str, Any]) -> None:
        """Restore a :meth:`snapshot` into this (empty) registry; older
        snapshots map each query id to its terms instead of listing ids."""
        for record in payload.get("subscribers", []):
            state = self.get_or_create(record["name"])
            state.acked = int(record["acked"])
            for query_id in record.get("queries", ()):
                state.queries.add(int(query_id))
                self._owners[int(query_id)] = state.name
            state.outbox = deque(dict(entry) for entry in record["outbox"])
            state.buffered = int(record.get("buffered", 0))
            state.replayed = int(record.get("replayed", 0))
            state.dead_lettered = int(record.get("dead_lettered", 0))

    # -- observability -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "subscribers": [
                self._states[name].as_dict() for name in sorted(self._states)
            ],
            "outbox_capacity": self.outbox_capacity,
            "max_attempts": self.max_attempts,
        }
