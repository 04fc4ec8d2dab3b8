"""Dead-letter queue: a JSONL segment of undeliverable notifications.

A notification lands here for one of two reasons (DESIGN.md §14):

``redelivery_exhausted``
    The entry was replayed to its subscriber more than
    ``dlq_max_attempts`` times without ever being acked — N consecutive
    delivery failures.
``overflow``
    The subscriber's retained outbox hit its capacity while the
    subscriber was away; the oldest entry is dead-lettered rather than
    silently dropped, so an operator can still re-drive it.

Entries keep the full notification payload, the owning subscriber, the
global offset and the attempt count, and are never removed by the
server — the DLQ is an operator surface (``repro dlq`` / the ``dlq``
protocol op), not a retry queue.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

#: The DLQ lives next to the event segments in the log directory.
DLQ_FILENAME = "dlq.seg"

DLQ_REASONS = ("redelivery_exhausted", "overflow")


class DeadLetterQueue:
    """Append-only dead-letter segment with in-memory stats."""

    def __init__(self, directory: str, fsync: str = "always") -> None:
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, DLQ_FILENAME)
        self._fsync = fsync == "always"
        self._entries, good_bytes = _read_segment(self.path)
        self._file = open(self.path, "ab")
        # A crash mid-write leaves a torn last line: cut it, or the next
        # entry would land on it and every later read would stop there.
        self._file.truncate(good_bytes)
        self._closed = False

    def add(
        self,
        subscriber: str,
        offset: int,
        query_id: Optional[int],
        payload: Dict[str, Any],
        reason: str,
        attempts: int,
    ) -> Dict[str, Any]:
        entry = {
            "seq": len(self._entries),
            "subscriber": subscriber,
            "offset": int(offset),
            "query_id": query_id,
            "reason": reason,
            "attempts": int(attempts),
            "payload": payload,
        }
        self._file.write(
            (json.dumps(entry, separators=(",", ":")) + "\n").encode("utf-8")
        )
        self._file.flush()
        if self._fsync:
            os.fsync(self._file.fileno())
        self._entries.append(entry)
        return entry

    def entries(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Newest-last view; ``limit`` keeps only the newest N."""
        if limit is None or limit >= len(self._entries):
            return list(self._entries)
        return self._entries[-limit:]

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        by_reason: Dict[str, int] = {}
        by_subscriber: Dict[str, int] = {}
        for entry in self._entries:
            by_reason[entry["reason"]] = by_reason.get(entry["reason"], 0) + 1
            name = entry["subscriber"]
            by_subscriber[name] = by_subscriber.get(name, 0) + 1
        return {
            "entries": len(self._entries),
            "by_reason": by_reason,
            "by_subscriber": by_subscriber,
        }

    def close(self) -> None:
        if not self._closed:
            self._file.close()
            self._closed = True


def read_dlq(directory: str) -> List[Dict[str, Any]]:
    """Offline read of a DLQ segment (``repro dlq`` and recovery share
    it); a missing file is an empty queue, a torn tail is dropped."""
    return _read_segment(os.path.join(directory, DLQ_FILENAME))[0]


def _read_segment(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """The entries before the first bad line, and their byte length."""
    entries: List[Dict[str, Any]] = []
    good_bytes = 0
    if not os.path.exists(path):
        return entries, good_bytes
    with open(path, "rb") as handle:
        for raw in handle:
            if not raw.endswith(b"\n"):
                break
            try:
                entry = json.loads(raw.decode("utf-8"))
            except ValueError:
                break
            if isinstance(entry, dict):
                entries.append(entry)
            good_bytes += len(raw)
    return entries, good_bytes
