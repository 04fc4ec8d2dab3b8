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
protocol op), not a retry queue.  Memory holds only the entry count and
the per-reason and per-subscriber tallies; entries are read back from
the file, so a subscriber that stays away does not grow the heap.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.eventlog.segments import sync_directory

#: The DLQ lives next to the event segments in the log directory.
DLQ_FILENAME = "dlq.seg"

DLQ_REASONS = ("redelivery_exhausted", "overflow")


class DeadLetterQueue:
    """Append-only dead-letter segment; memory holds only its tallies."""

    def __init__(self, directory: str, fsync: str = "always") -> None:
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, DLQ_FILENAME)
        self._fsync = fsync == "always"
        self._count = 0
        self._by_reason: Dict[str, int] = {}
        self._by_subscriber: Dict[str, int] = {}
        created = not os.path.exists(self.path)
        good_bytes = 0
        for entry, good_bytes in _scan_segment(self.path):
            if entry is not None:
                self._tally(entry)
        self._file = open(self.path, "ab")
        # A crash mid-write leaves a torn last line: cut it, or the next
        # entry would land on it and every later read would stop there.
        self._file.truncate(good_bytes)
        if created:
            sync_directory(directory, fsync)
        self._closed = False

    def _tally(self, entry: Dict[str, Any]) -> None:
        self._count += 1
        reason = entry["reason"]
        self._by_reason[reason] = self._by_reason.get(reason, 0) + 1
        name = entry["subscriber"]
        self._by_subscriber[name] = self._by_subscriber.get(name, 0) + 1

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
            "seq": self._count,
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
        self._tally(entry)
        return entry

    def entries(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Newest-last view read from the file; ``limit`` keeps only the
        newest N."""
        return list(deque(_read_entries(self.path), maxlen=limit))

    def __len__(self) -> int:
        return self._count

    def stats(self) -> Dict[str, Any]:
        return {
            "entries": self._count,
            "by_reason": dict(self._by_reason),
            "by_subscriber": dict(self._by_subscriber),
        }

    def close(self) -> None:
        if not self._closed:
            self._file.close()
            self._closed = True


def read_dlq(directory: str) -> List[Dict[str, Any]]:
    """Offline read of a DLQ segment (``repro dlq`` and recovery share
    it); a missing file is an empty queue, a torn tail is dropped."""
    return list(_read_entries(os.path.join(directory, DLQ_FILENAME)))


def _read_entries(path: str) -> Iterator[Dict[str, Any]]:
    for entry, _ in _scan_segment(path):
        if entry is not None:
            yield entry


def _scan_segment(path: str) -> Iterator[Tuple[Optional[Dict[str, Any]], int]]:
    """Each line before the first bad one: its entry (None when the line
    is JSON but not an object) and the byte length up to its end."""
    if not os.path.exists(path):
        return
    good_bytes = 0
    with open(path, "rb") as handle:
        for raw in handle:
            if not raw.endswith(b"\n"):
                return
            try:
                entry = json.loads(raw.decode("utf-8"))
            except ValueError:
                return
            good_bytes += len(raw)
            yield (entry if isinstance(entry, dict) else None), good_bytes
