"""Segmented write-ahead event log with rotation and fsync policy.

On-disk layout: a directory of ``events-<base>.seg`` files where
``<base>`` is the 20-digit zero-padded offset of the segment's first
record.  Each segment is JSONL — one ``{"offset": N, "record": {...}}``
object per line — so the files are greppable and a torn tail is exactly
one incomplete last line.

Durability contract:

* Offsets are assigned contiguously from the log's base; an append is
  *accepted* only once its line reached the file (and, under the
  ``always`` fsync policy, the disk).  Callers append **before** applying
  the op, so anything they acknowledged is replayable.
* Opening a directory re-scans every segment in base order.  A malformed
  or gapped line in the *middle* of the history is corruption and raises;
  an incomplete line at the very tail is the signature of a crash
  mid-write and is physically truncated away (the op was never
  acknowledged, dropping it is the correct at-most-once outcome for
  un-acked work).
* ``truncate_to(offset)`` drops whole segments that a checkpoint made
  redundant; the active segment is never deleted, so retention moves in
  segment-sized steps.

Fsync policies: ``always`` fsyncs once per append call (one fsync covers
a whole ``append_many`` batch), ``batch`` fsyncs on rotation, explicit
:meth:`sync` and :meth:`close`, ``never`` leaves flushing to the OS.
Under ``always`` and ``batch`` the directory itself is fsynced
(:func:`sync_directory`) after every name the log creates or removes —
open, rotation, truncation — since a file's fsync need not make its
directory entry durable.

The ``eventlog.fault`` injection point fires on every append call:
``raise`` rejects the batch before any byte is written, ``torn`` writes
half of the first record's line and poisons the handle (the simulated
process must reopen — exactly what a real crash forces).

Memory: the log holds no records, only each segment's ``[base, count]``.
The open-time scan validates every line and keeps the counts;
:meth:`EventLog.entries_since` reads the records back from the files.
"""

from __future__ import annotations

import json
import os
from itertools import islice
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.config import FSYNC_POLICIES
from repro.errors import InjectedFaultError, ReproError
from repro.eventlog.records import validate_record

#: Segment file naming: events-<20-digit base offset>.seg
SEGMENT_PREFIX = "events-"
SEGMENT_SUFFIX = ".seg"


def segment_name(base: int) -> str:
    return f"{SEGMENT_PREFIX}{base:020d}{SEGMENT_SUFFIX}"


def _parse_segment_base(name: str) -> Optional[int]:
    if not (name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)):
        return None
    digits = name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def sync_directory(directory: str, fsync: str) -> bool:
    """Fsync ``directory`` so the names created, renamed or removed in it
    survive a crash; skipped under the ``never`` policy.  Returns whether
    it synced."""
    if fsync == "never":
        return False
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    return True


def _encode_entry(offset: int, record: Dict[str, Any]) -> bytes:
    line = json.dumps(
        {"offset": offset, "record": record}, separators=(",", ":")
    )
    return (line + "\n").encode("utf-8")


class EventLog:
    """Append-only segmented log of accepted operations."""

    def __init__(
        self,
        directory: str,
        fsync: str = "always",
        segment_entries: int = 512,
        injector: Optional[object] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ReproError(
                f"unknown fsync policy {fsync!r}; expected one of "
                f"{FSYNC_POLICIES}"
            )
        if segment_entries < 1:
            raise ReproError(
                f"segment_entries must be >= 1, got {segment_entries}"
            )
        self.directory = directory
        self.fsync_policy = fsync
        self.segment_entries = segment_entries
        self._injector = injector
        self._poisoned = False
        self._closed = False
        # -- accounting -----------------------------------------------
        self.appended = 0
        self.fsyncs = 0
        self.rotations = 0
        self.recovered = 0
        self.torn_dropped = 0
        self.reclaimed_bytes = 0
        os.makedirs(directory, exist_ok=True)
        #: Per-segment bookkeeping (base offset, entry count), including
        #: the active segment last; the retained window is contiguous.
        self._segments: List[List[int]] = []
        self._scan()
        if not self._segments:
            self._segments.append([0, 0])
        active_base = self._segments[-1][0]
        self._active_path = os.path.join(directory, segment_name(active_base))
        self._file = open(self._active_path, "ab")
        # The scan may have removed or cut files, and the active segment
        # may be new.
        self._sync_directory()

    def _sync_directory(self) -> None:
        if sync_directory(self.directory, self.fsync_policy):
            self.fsyncs += 1

    # -- recovery scan ----------------------------------------------------

    def _scan(self) -> None:
        names = sorted(
            name
            for name in os.listdir(self.directory)
            if _parse_segment_base(name) is not None
        )
        expected: Optional[int] = None
        for position, name in enumerate(names):
            base = _parse_segment_base(name)
            path = os.path.join(self.directory, name)
            if expected is None:
                expected = base
            elif base != expected:
                raise ReproError(
                    f"event log gap: segment {name} starts at {base}, "
                    f"expected {expected}"
                )
            count, good_bytes, torn = self._scan_segment(path, expected)
            if torn and position != len(names) - 1:
                raise ReproError(
                    f"event log corrupted: segment {name} has a bad line "
                    f"but is not the final segment"
                )
            if torn:
                # Crash mid-write: physically drop the partial tail so
                # post-recovery appends land on a clean line boundary.
                os.truncate(path, good_bytes)
                self.torn_dropped += 1
            self._segments.append([base, count])
            expected += count
        self.recovered = sum(count for _, count in self._segments)

    def _scan_segment(
        self, path: str, expected: int
    ) -> Tuple[int, int, bool]:
        """Validate one segment; returns (entries, good byte length, torn?)."""
        count = 0
        good_bytes = 0
        with open(path, "rb") as handle:
            for raw in handle:
                bad = not raw.endswith(b"\n")
                if not bad:
                    try:
                        parsed = json.loads(raw.decode("utf-8"))
                        validate_record(parsed["record"])
                        bad = parsed["offset"] != expected + count
                    except (ValueError, KeyError, TypeError, ReproError):
                        bad = True
                if bad:
                    # A torn tail is the *final* partial line of a crash;
                    # anything after a bad line means the history itself
                    # is damaged and replaying past it would fork state.
                    if handle.read().strip():
                        raise ReproError(
                            f"event log corrupted: {path} has content "
                            f"after a malformed line at offset "
                            f"{expected + count}"
                        )
                    return count, good_bytes, True
                count += 1
                good_bytes += len(raw)
        return count, good_bytes, False

    # -- appending --------------------------------------------------------

    @property
    def base(self) -> int:
        """Offset of the oldest retained entry."""
        return self._segments[0][0]

    @property
    def end(self) -> int:
        """Offset the next accepted op will get."""
        base, count = self._segments[-1]
        return base + count

    def append(self, record: Dict[str, Any]) -> int:
        return self.append_many([record])[0]

    def append_many(self, records: Sequence[Dict[str, Any]]) -> List[int]:
        """Durably append records; returns their assigned offsets.

        One call is one durability unit: a single flush (+ fsync under
        ``always``) covers the whole batch, so callers batch the publish
        records of one micro-batch into one call.
        """
        if self._closed:
            raise ReproError("event log is closed")
        if self._poisoned:
            raise ReproError(
                "event log poisoned by a torn write; reopen the directory"
            )
        validated = [validate_record(record) for record in records]
        if not validated:
            return []
        if self._injector is not None:
            try:
                self._injector.fire("eventlog.fault")
            except InjectedFaultError as exc:
                if getattr(exc, "action", "") == "torn":
                    line = _encode_entry(self.end, validated[0])
                    self._file.write(line[: len(line) // 2])
                    self._file.flush()
                    self._poisoned = True
                raise
        offsets = []
        for record in validated:
            if self._segments[-1][1] >= self.segment_entries:
                self._rotate()
            offset = self.end
            self._file.write(_encode_entry(offset, record))
            self._segments[-1][1] += 1
            self.appended += 1
            offsets.append(offset)
        self._file.flush()
        if self.fsync_policy == "always":
            os.fsync(self._file.fileno())
            self.fsyncs += 1
        return offsets

    def _rotate(self) -> None:
        self._file.flush()
        if self.fsync_policy in ("always", "batch"):
            os.fsync(self._file.fileno())
            self.fsyncs += 1
        self._file.close()
        base = self.end
        self._segments.append([base, 0])
        self._active_path = os.path.join(self.directory, segment_name(base))
        self._file = open(self._active_path, "ab")
        self._sync_directory()
        self.rotations += 1

    def sync(self) -> None:
        """Flush and fsync the active segment regardless of policy."""
        if self._closed:
            return
        self._file.flush()
        if self.fsync_policy != "never":
            os.fsync(self._file.fileno())
            self.fsyncs += 1

    # -- reading ----------------------------------------------------------

    def entries_since(
        self, offset: int
    ) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Retained ``(offset, record)`` pairs with offset >= ``offset``.

        Raises at call time when ``offset`` predates the retained window
        — the caller needs a checkpoint, not a replay.  The pairs are
        read from the segment files as the iterator is advanced, up to
        the end the log had at call time; truncating the log before the
        iterator is exhausted is an error.
        """
        start = max(int(offset), 0)
        if start < self.base:
            raise ReproError(
                f"offset {offset} predates the retained log (base "
                f"{self.base}); recover from a checkpoint"
            )
        if not self._closed:
            self._file.flush()
        segments = [(base, count) for base, count in self._segments]
        return self._read(start, segments)

    def _read(
        self, start: int, segments: List[Tuple[int, int]]
    ) -> Iterator[Tuple[int, Dict[str, Any]]]:
        for base, count in segments:
            if base + count <= start:
                continue
            skip = max(start - base, 0)
            path = os.path.join(self.directory, segment_name(base))
            with open(path, "rb") as handle:
                # ``count`` bounds the read: a poisoned handle may have
                # left half a line after the last accepted entry.
                for offset, raw in enumerate(
                    islice(handle, skip, count), base + skip
                ):
                    yield offset, json.loads(raw)["record"]

    def truncate_to(self, offset: int) -> int:
        """Drop whole segments entirely below ``offset``; returns the new
        base.  A checkpoint at ``offset`` makes everything before it
        redundant; partial segments (and the active one) are retained, so
        the base only moves in segment-sized steps."""
        before = len(self._segments)
        while len(self._segments) > 1:
            base, count = self._segments[0]
            if base + count > offset:
                break
            path = os.path.join(self.directory, segment_name(base))
            self.reclaimed_bytes += os.path.getsize(path)
            os.remove(path)
            self._segments.pop(0)
        if len(self._segments) < before:
            self._sync_directory()
        return self.base

    # -- lifecycle / observability ----------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._file.flush()
        if self.fsync_policy != "never":
            os.fsync(self._file.fileno())
            self.fsyncs += 1
        self._file.close()
        self._closed = True

    def stats(self) -> Dict[str, Any]:
        return {
            "directory": self.directory,
            "base": self.base,
            "end": self.end,
            "segments": len(self._segments),
            "segment_entries": self.segment_entries,
            "fsync": self.fsync_policy,
            "appended": self.appended,
            "fsyncs": self.fsyncs,
            "rotations": self.rotations,
            "recovered": self.recovered,
            "torn_dropped": self.torn_dropped,
            "reclaimed_bytes": self.reclaimed_bytes,
        }

    def __repr__(self) -> str:
        return (
            f"EventLog({self.directory!r}, [{self.base}, {self.end}), "
            f"{len(self._segments)} segments)"
        )
