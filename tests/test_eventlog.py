"""Durability tier: event log, DLQ, registry, recovery, runtime wiring.

Covers the unit surface of :mod:`repro.eventlog` (segments, rotation,
torn-tail repair, dead-lettering, subscriber retention, checkpoints)
and the server integration: resume/ack/dlq ops, replay recovery across
a runtime restart, ingest throttling, and the stats sections.  The
golden segment corpus under ``tests/fixtures/eventlog_corpus`` pins the
on-disk format; crash interleavings live in ``test_crash_matrix.py``.
"""

from __future__ import annotations

import asyncio
import json
import os
import stat
import tracemalloc

import pytest

from repro.config import ServerConfig
from repro.core.engine import DasEngine
from repro.core.query import DasQuery
from repro.errors import (
    ConfigurationError,
    EmptyQueryError,
    InjectedFaultError,
    ProtocolError,
    ReproError,
    ServerClosedError,
    UnknownQueryError,
)
from repro.eventlog import (
    DeadLetterQueue,
    EventLog,
    SubscriberRegistry,
    TokenBucket,
    ack_record,
    checkpoint_path,
    latest_checkpoint,
    publish_record,
    read_dlq,
    recover,
    segment_name,
    subscribe_record,
    unsubscribe_record,
    validate_record,
    write_checkpoint,
)
from repro.persistence.checkpoint import checkpoint
from repro.server import InProcessClient, ServerRuntime
from repro.server.protocol import raise_for_reply
from repro.simulation.faults import FaultPlan


def run(coroutine, timeout=30.0):
    """Run an async scenario with a hard deadline (deadlock guard)."""
    return asyncio.run(asyncio.wait_for(coroutine, timeout))


def doc_payload(doc_id, tokens):
    return {
        "doc_id": doc_id,
        "created_at": float(doc_id),
        "tf": {token: 1 for token in tokens},
    }


def publish(doc_id, tokens=("coffee",)):
    return publish_record(doc_payload(doc_id, tokens))


# -- records ---------------------------------------------------------------


def test_validate_record_accepts_every_kind():
    for record in (
        publish(0),
        subscribe_record(3, ["tea"], subscriber="alice"),
        unsubscribe_record(3),
        ack_record("alice", 7),
    ):
        assert validate_record(record) is record


@pytest.mark.parametrize(
    "bad",
    [
        "not a dict",
        {"kind": "mystery"},
        {"kind": "publish", "doc": None},
        {"kind": "publish", "doc": {"doc_id": "x", "created_at": 0, "tf": {}}},
        {"kind": "publish", "doc": {"doc_id": 1, "created_at": 0, "tf": []}},
        # A tf map is what TermVector counts: string terms, whole
        # non-negative counts (a fraction would truncate or zero a norm).
        {"kind": "publish", "doc": {"doc_id": 1, "created_at": 0, "tf": {"a": 0.5}}},
        {"kind": "publish", "doc": {"doc_id": 1, "created_at": 0, "tf": {"a": 2.0}}},
        {"kind": "publish", "doc": {"doc_id": 1, "created_at": 0, "tf": {"a": True}}},
        {"kind": "publish", "doc": {"doc_id": 1, "created_at": 0, "tf": {"a": -1}}},
        {"kind": "publish", "doc": {"doc_id": 1, "created_at": 0, "tf": {"a": "1"}}},
        {"kind": "publish", "doc": {"doc_id": 1, "created_at": 0, "tf": {1: 1}}},
        {"kind": "subscribe", "query_id": True, "terms": ["a"]},
        {"kind": "subscribe", "query_id": 1, "terms": "a"},
        {"kind": "unsubscribe", "query_id": 1, "subscriber": 9},
        {"kind": "ack", "subscriber": "a", "offset": "7"},
        {"kind": "ack", "offset": 7},
    ],
)
def test_validate_record_rejects_malformed(bad):
    with pytest.raises(ReproError):
        validate_record(bad)


# -- segments --------------------------------------------------------------


def test_append_assigns_contiguous_offsets_and_rotates(tmp_eventlog):
    directory, open_log = tmp_eventlog
    log = open_log(segment_entries=3)
    offsets = [log.append(publish(i)) for i in range(7)]
    assert offsets == list(range(7))
    assert log.base == 0 and log.end == 7
    assert log.rotations == 2
    names = sorted(n for n in os.listdir(directory) if n.endswith(".seg"))
    assert names == [segment_name(0), segment_name(3), segment_name(6)]
    assert list(log.entries_since(5)) == [(5, publish(5)), (6, publish(6))]


def test_append_many_is_one_durability_unit(tmp_eventlog):
    _, open_log = tmp_eventlog
    log = open_log(segment_entries=100)
    before = log.fsyncs
    assert log.append_many([publish(i) for i in range(5)]) == list(range(5))
    assert log.fsyncs == before + 1
    assert log.append_many([]) == []


def test_reopen_recovers_everything(tmp_eventlog):
    _, open_log = tmp_eventlog
    log = open_log(segment_entries=3)
    for i in range(5):
        log.append(publish(i))
    log.close()
    reopened = open_log(segment_entries=3)
    assert reopened.end == 5
    assert reopened.recovered == 5
    assert reopened.append(publish(5)) == 5
    assert [offset for offset, _ in reopened.entries_since(0)] == list(
        range(6)
    )


def test_entries_since_below_base_raises(tmp_eventlog):
    _, open_log = tmp_eventlog
    log = open_log(segment_entries=2)
    for i in range(6):
        log.append(publish(i))
    assert log.truncate_to(4) == 4
    assert log.base == 4
    with pytest.raises(ReproError):
        log.entries_since(0)


def test_appended_records_are_not_kept_in_memory(tmp_eventlog):
    _, open_log = tmp_eventlog
    log = open_log(segment_entries=512, fsync="never")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for start in range(0, 5000, 4):
            log.append_many([publish(i) for i in range(start, start + 4)])
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert log.end == 5000
    assert retained / 5000 < 16


def test_entries_since_reads_the_window_it_was_called_on(tmp_eventlog):
    _, open_log = tmp_eventlog
    log = open_log(segment_entries=3)
    for i in range(4):
        log.append(publish(i))
    entries = log.entries_since(1)
    assert iter(entries) is entries
    log.append(publish(4))
    assert list(entries) == [(i, publish(i)) for i in range(1, 4)]
    assert [o for o, _ in log.entries_since(0)] == [0, 1, 2, 3, 4]


def test_truncate_never_deletes_the_active_segment(tmp_eventlog):
    directory, open_log = tmp_eventlog
    log = open_log(segment_entries=4)
    for i in range(6):
        log.append(publish(i))
    # Offset 6 covers everything, but entries 4..5 live in the active
    # segment, so the base only advances to its boundary.
    assert log.truncate_to(6) == 4
    assert segment_name(4) in os.listdir(directory)


def _record_directory_syncs(monkeypatch):
    """Spy on ``os.fsync`` / ``os.replace`` / ``os.remove``: returns the
    list of ``("dir-fsync",)``, ``("replace", name)`` and ``("remove",
    name)`` events, in order."""
    events = []
    fsync, replace, remove = os.fsync, os.replace, os.remove

    def spy_fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            events.append(("dir-fsync",))
        return fsync(fd)

    def spy_replace(source, target):
        events.append(("replace", os.path.basename(target)))
        return replace(source, target)

    def spy_remove(path):
        events.append(("remove", os.path.basename(path)))
        return remove(path)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)
    monkeypatch.setattr(os, "remove", spy_remove)
    return events


@pytest.mark.parametrize("fsync", ["always", "batch", "never"])
def test_directory_is_synced_after_each_name_change(
    tmp_eventlog, monkeypatch, fsync
):
    """Open, rotation and truncation each fsync the log directory (and
    count it), except under ``never``; so does the creation of the DLQ
    file."""
    directory, open_log = tmp_eventlog
    events = _record_directory_syncs(monkeypatch)
    synced = 0 if fsync == "never" else 1
    log = open_log(fsync=fsync, segment_entries=2)
    assert events == [("dir-fsync",)] * synced
    assert log.fsyncs == synced
    log.append_many([publish(0), publish(1)])
    del events[:]
    before = log.fsyncs
    log.append(publish(2))  # rotates
    assert events == [("dir-fsync",)] * synced
    # The closed segment's fsync and the directory's; ``always`` adds
    # the append's own.
    appended = {"always": 1, "batch": 0, "never": 0}[fsync]
    assert log.fsyncs == before + 2 * synced + appended
    log.append_many([publish(3), publish(4)])  # rotates into [4, 5)
    dir_syncs = [("dir-fsync",)] * synced
    del events[:]
    log.truncate_to(2)  # drops [0, 2)
    assert events == [("remove", segment_name(0))] + dir_syncs
    del events[:]
    DeadLetterQueue(directory, fsync=fsync).close()
    assert events == dir_syncs
    del events[:]
    DeadLetterQueue(directory, fsync=fsync).close()  # already exists
    assert events == []


def test_scan_rejects_overlapping_segments(tmp_eventlog):
    """Two segments whose offsets overlap are not a state the log ever
    writes: the open-time scan refuses them as a gap in the history."""
    directory, open_log = tmp_eventlog
    log = open_log(segment_entries=3)
    for i in range(6):
        log.append(publish(i))
    log.close()
    encode = lambda o: (
        json.dumps({"offset": o, "record": publish(o)}) + "\n"
    ).encode()
    with open(os.path.join(directory, segment_name(1)), "wb") as fh:
        fh.write(encode(1) + encode(2))
    with pytest.raises(ReproError, match="gap"):
        open_log(segment_entries=3)


def test_compact_leaves_the_dlq_alone(tmp_eventlog):
    directory, open_log = tmp_eventlog
    dlq = DeadLetterQueue(directory)
    dlq.add("alice", 0, 1, {"doc_id": 0}, "overflow", 1)
    log = open_log(segment_entries=2)
    for i in range(5):
        log.append(publish(i))
    log.truncate_to(5)
    assert log.base == 4  # the active segment stays
    assert read_dlq(directory)  # the dead letter survived truncation


def test_append_validates_before_writing(tmp_eventlog):
    _, open_log = tmp_eventlog
    log = open_log()
    with pytest.raises(ReproError):
        log.append({"kind": "mystery"})
    assert log.end == 0
    log.close()
    with pytest.raises(ReproError):
        log.append(publish(0))


def test_bad_fsync_policy_and_segment_size_raise(tmp_eventlog):
    directory, _ = tmp_eventlog
    with pytest.raises(ReproError):
        EventLog(directory, fsync="sometimes")
    with pytest.raises(ReproError):
        EventLog(directory, segment_entries=0)


def test_injected_torn_write_poisons_the_handle(tmp_eventlog):
    _, open_log = tmp_eventlog
    injector = FaultPlan.parse("eventlog.fault@2:torn").injector()
    log = open_log(segment_entries=100, injector=injector)
    log.append(publish(0))
    with pytest.raises(ReproError):
        log.append(publish(1))
    with pytest.raises(ReproError):
        log.append(publish(2))  # poisoned until reopen
    reopened = open_log(segment_entries=100)
    assert reopened.end == 1  # the half line was truncated away
    assert reopened.torn_dropped == 1
    assert reopened.append(publish(1)) == 1


def _rewrite_tf(directory, offset, tf):
    """Replace the ``tf`` map of the publish at ``offset`` on disk with
    one that is still well-formed JSON."""
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        with open(path, "rb") as handle:
            lines = handle.readlines()
        for index, raw in enumerate(lines):
            entry = json.loads(raw)
            if entry["offset"] == offset:
                entry["record"]["doc"]["tf"] = tf
                lines[index] = (json.dumps(entry) + "\n").encode("utf-8")
                with open(path, "wb") as handle:
                    handle.writelines(lines)
                return
    raise AssertionError(f"offset {offset} not on disk")


def test_fractional_tf_on_disk_is_a_torn_tail_or_corruption(tmp_eventlog):
    """Recovery rebuilds documents from on-disk ``tf`` maps: a fractional
    count fails validation, so a last line is dropped as a torn tail and
    an earlier one is corruption — it never reaches ``TermVector``."""
    directory, open_log = tmp_eventlog
    log = open_log(segment_entries=100)
    for i in range(3):
        log.append(publish(i))
    log.close()
    _rewrite_tf(directory, 2, {"coffee": 0.5})
    reopened = open_log(segment_entries=100)
    assert reopened.end == 2
    assert reopened.torn_dropped == 1
    reopened.append(publish(2))
    reopened.append(publish(3))
    reopened.close()
    _rewrite_tf(directory, 1, {"coffee": 2.9})
    with pytest.raises(ReproError):
        open_log(segment_entries=100)


def test_segment_gap_is_corruption(tmp_eventlog):
    directory, open_log = tmp_eventlog
    log = open_log(segment_entries=2)
    for i in range(6):
        log.append(publish(i))
    log.close()
    os.remove(os.path.join(directory, segment_name(2)))
    with pytest.raises(ReproError):
        open_log(segment_entries=2)


# -- golden corpus ---------------------------------------------------------


def test_corpus_clean_replays_bytes(eventlog_corpus):
    log = EventLog(eventlog_corpus("clean"), fsync="never")
    entries = list(log.entries_since(0))
    assert [offset for offset, _ in entries] == list(range(10))
    kinds = [record["kind"] for _, record in entries]
    assert kinds == (
        ["subscribe"] * 2 + ["publish"] * 6 + ["ack", "unsubscribe"]
    )
    assert entries[0][1]["subscriber"] == "alice"
    assert log.torn_dropped == 0
    log.close()


def test_corpus_torn_tail_is_truncated_and_appendable(eventlog_corpus):
    directory = eventlog_corpus("torn_tail")
    log = EventLog(directory, fsync="never", segment_entries=4)
    assert log.end == 10
    assert log.torn_dropped == 1
    assert log.append(publish(99)) == 10
    log.close()
    # The repair is physical: a second scan sees a clean history.
    again = EventLog(directory, fsync="never", segment_entries=4)
    assert again.torn_dropped == 0 and again.end == 11
    again.close()


def test_corpus_corrupt_middle_raises(eventlog_corpus):
    with pytest.raises(ReproError):
        EventLog(eventlog_corpus("corrupt"), fsync="never")


# -- DLQ -------------------------------------------------------------------


def test_dlq_appends_and_reads_back(tmp_path):
    directory = str(tmp_path)
    dlq = DeadLetterQueue(directory)
    dlq.add("alice", 4, 0, {"op": "notify"}, "overflow", 1)
    dlq.add("bob", 9, 2, {"op": "notify"}, "redelivery_exhausted", 4)
    assert len(dlq) == 2
    assert dlq.entries(1)[0]["subscriber"] == "bob"
    assert dlq.stats() == {
        "entries": 2,
        "by_reason": {"overflow": 1, "redelivery_exhausted": 1},
        "by_subscriber": {"alice": 1, "bob": 1},
    }
    dlq.close()
    offline = read_dlq(directory)
    assert [entry["seq"] for entry in offline] == [0, 1]
    # A torn tail is dropped, not fatal, and reopening cuts it: an entry
    # added after it is read back rather than lost behind the fragment.
    with open(dlq.path, "ab") as handle:
        handle.write(b'{"seq": 2, "subscr')
    assert len(read_dlq(directory)) == 2
    reopened = DeadLetterQueue(directory)
    assert len(reopened) == 2
    reopened.add("carol", 11, 3, {"op": "notify"}, "overflow", 1)
    reopened.close()
    assert [entry["subscriber"] for entry in read_dlq(directory)] == [
        "alice", "bob", "carol"
    ]


def test_read_dlq_missing_file_is_empty(tmp_path):
    assert read_dlq(str(tmp_path)) == []


def test_dead_letters_are_not_kept_in_memory(tmp_path):
    """Only the count and the tallies stay in memory; entries (payload
    included) are read back from the file."""
    dlq = DeadLetterQueue(str(tmp_path), fsync="never")
    payload = {
        "op": "notify",
        "query_id": 1,
        "document": {"doc_id": 7, "created_at": 7.0, "tf": {"coffee": 2}},
        "replaced": None,
    }
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for offset in range(2000):
            dlq.add("alice", offset, 1, dict(payload), "overflow", 1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / 2000 < 16
    assert len(dlq) == 2000
    assert dlq.stats()["by_subscriber"] == {"alice": 2000}
    newest = dlq.entries(2)
    assert [entry["seq"] for entry in newest] == [1998, 1999]
    assert newest[1]["payload"] == payload
    assert len(dlq.entries()) == 2000
    dlq.close()


# -- subscriber registry ---------------------------------------------------


def test_registry_offer_ack_pending_cycle():
    registry = SubscriberRegistry(outbox_capacity=8, max_attempts=3)
    registry.record_subscribe("alice", 0)
    assert registry.owner_of(0) == "alice"
    for offset in range(4):
        registry.offer("alice", offset, 0, {"offset": offset})
    assert registry.ack("alice", 1) == 2
    replay = registry.pending("alice")
    assert [entry["offset"] for entry in replay] == [2, 3]
    # Offers at or below the acked floor are no-ops (replay idempotence).
    registry.offer("alice", 1, 0, {"offset": 1})
    assert len(registry.get("alice").outbox) == 2
    registry.record_unsubscribe(0)
    assert registry.owner_of(0) is None


def test_registry_redelivery_exhaustion_dead_letters(tmp_path):
    dlq = DeadLetterQueue(str(tmp_path))
    registry = SubscriberRegistry(outbox_capacity=8, max_attempts=2, dlq=dlq)
    registry.offer("alice", 5, 0, {"offset": 5})
    assert len(registry.pending("alice")) == 1
    assert len(registry.pending("alice")) == 1
    # Third replay exceeds max_attempts=2: dead-lettered, not returned.
    assert registry.pending("alice") == []
    assert dlq.entries()[0]["reason"] == "redelivery_exhausted"
    assert registry.get("alice").dead_lettered == 1
    dlq.close()


def test_registry_overflow_dead_letters_oldest(tmp_path):
    dlq = DeadLetterQueue(str(tmp_path))
    registry = SubscriberRegistry(outbox_capacity=2, max_attempts=3, dlq=dlq)
    for offset in range(3):
        registry.offer("alice", offset, 0, {"offset": offset})
    entry = dlq.entries()[0]
    assert (entry["reason"], entry["offset"]) == ("overflow", 0)
    assert [e["offset"] for e in registry.get("alice").outbox] == [1, 2]
    dlq.close()


def test_registry_snapshot_load_roundtrip():
    registry = SubscriberRegistry(outbox_capacity=8, max_attempts=3)
    registry.record_subscribe("alice", 0)
    registry.record_subscribe("alice", 2)
    registry.offer("alice", 3, 0, {"offset": 3})
    registry.ack("alice", 1)
    restored = SubscriberRegistry(outbox_capacity=8, max_attempts=3)
    restored.load(json.loads(json.dumps(registry.snapshot())))
    assert restored.snapshot() == registry.snapshot()
    assert restored.owner_of(2) == "alice"


def test_registry_loads_a_snapshot_that_maps_ids_to_terms():
    """Checkpoints written while the registry kept each query's terms map
    query id to terms; they load into the same owners, and are saved
    back as the id list."""
    snapshot = {
        "subscribers": [
            {
                "name": "alice",
                "acked": 1,
                "queries": {"0": ["coffee"], "2": ["tea"]},
                "outbox": [
                    {
                        "offset": 3,
                        "query_id": 0,
                        "payload": {"offset": 3},
                        "attempts": 0,
                    }
                ],
                "buffered": 1,
                "replayed": 0,
                "dead_lettered": 0,
            }
        ]
    }
    registry = SubscriberRegistry()
    registry.load(snapshot)
    assert registry.owner_of(0) == registry.owner_of(2) == "alice"
    assert registry.get("alice").queries == {0, 2}
    saved = registry.snapshot()["subscribers"][0]
    assert saved["queries"] == [0, 2]
    assert {**saved, "queries": snapshot["subscribers"][0]["queries"]} == (
        snapshot["subscribers"][0]
    )


def test_registry_validates_limits():
    with pytest.raises(ReproError):
        SubscriberRegistry(outbox_capacity=0)
    with pytest.raises(ReproError):
        SubscriberRegistry(max_attempts=0)


# -- token bucket ----------------------------------------------------------


def test_token_bucket_burst_then_throttle():
    bucket = TokenBucket(rate=10.0, burst=2)
    assert bucket.take(0.0) == 0.0
    assert bucket.take(0.0) == 0.0
    wait = bucket.take(0.0)
    assert wait > 0.0
    # After the advertised wait a token is available again.
    assert bucket.take(wait) == 0.0
    assert bucket.snapshot()["rate"] == 10.0


# -- checkpoints + recovery ------------------------------------------------


def _engine():
    return DasEngine.for_method("GIFilter", k=2, block_size=4)


def test_recover_empty_directory(tmp_path):
    state = recover(str(tmp_path / "log"), _engine())
    assert state.checkpoint_offset == -1
    assert state.replayed == 0 and state.replay_errors == []
    state.log.close()


def test_recover_replays_log_into_engine_and_outbox(tmp_eventlog):
    directory, open_log = tmp_eventlog
    log = open_log(segment_entries=100)
    log.append(subscribe_record(0, ["coffee"], subscriber="alice"))
    log.append(publish(0, ("coffee", "beans")))
    log.append(publish(1, ("tea",)))
    log.close()
    state = recover(directory, _engine())
    assert state.replayed == 3
    assert [d.doc_id for d in state.engine.results(0)] == [0]
    pending = state.registry.pending("alice")
    assert [(e["offset"], e["query_id"]) for e in pending] == [(1, 0)]
    assert pending[0]["payload"]["document"]["doc_id"] == 0
    state.log.close()


def test_recover_is_idempotent(tmp_eventlog):
    directory, open_log = tmp_eventlog
    log = open_log(segment_entries=100)
    log.append(subscribe_record(0, ["coffee"], subscriber="alice"))
    for i in range(4):
        log.append(publish(i, ("coffee",)))
    log.append(ack_record("alice", 2))
    log.close()
    first = recover(directory, _engine())
    first.log.close()
    second = recover(directory, _engine())
    assert second.registry.snapshot() == first.registry.snapshot()
    assert [d.doc_id for d in second.engine.results(0)] == [
        d.doc_id for d in first.engine.results(0)
    ]
    second.log.close()


def test_checkpoint_replaces_replay_and_prunes(tmp_eventlog):
    directory, open_log = tmp_eventlog
    log = open_log(segment_entries=2)
    engine = _engine()
    registry = SubscriberRegistry()
    log.append(subscribe_record(0, ["coffee"], subscriber="alice"))
    engine.subscribe(DasQuery(0, ["coffee"]))
    registry.record_subscribe("alice", 0)
    for i in range(5):
        log.append(publish(i, ("coffee",)))
        from repro.server.protocol import document_from_payload

        engine.publish_batch([document_from_payload(doc_payload(i, ("coffee",)))])
    for offset in (2, 4, 6):
        write_checkpoint(
            directory, offset, checkpoint(engine), registry.snapshot()
        )
    names = [n for n in os.listdir(directory) if n.startswith("checkpoint-")]
    assert names == [os.path.basename(checkpoint_path(directory, 6))]
    assert latest_checkpoint(directory)["offset"] == 6
    log.truncate_to(6)
    log.close()
    state = recover(directory, _engine(), segment_entries=2)
    assert state.checkpoint_offset == 6
    assert state.replayed == 0  # nothing above the checkpoint
    assert sorted(d.doc_id for d in state.engine.results(0)) == [3, 4]
    state.log.close()


def test_recover_detects_truncation_past_checkpoint(tmp_eventlog):
    directory, open_log = tmp_eventlog
    log = open_log(segment_entries=2)
    for i in range(6):
        log.append(publish(i))
    log.truncate_to(4)
    log.close()
    # No checkpoint covers offsets 0..3: replay would silently fork.
    with pytest.raises(ReproError):
        recover(directory, _engine(), segment_entries=2)


def test_torn_checkpoint_falls_back_to_previous(tmp_eventlog):
    directory, open_log = tmp_eventlog
    open_log(segment_entries=100).append(
        subscribe_record(0, ["coffee"], subscriber="alice")
    )
    engine = _engine()
    registry = SubscriberRegistry()
    write_checkpoint(
        directory, 1, checkpoint(engine), registry.snapshot()
    )
    injector = FaultPlan.parse("checkpoint.write@1:torn").injector()
    with pytest.raises(Exception):
        write_checkpoint(
            directory,
            5,
            checkpoint(engine),
            registry.snapshot(),
            injector=injector,
        )
    assert latest_checkpoint(directory)["offset"] == 1


def test_recover_removes_stale_checkpoint_temporaries(tmp_eventlog):
    """A checkpoint write that fails before its rename leaves its temp
    file behind; recovery deletes it, and the checkpoint before it
    stands."""
    directory, open_log = tmp_eventlog
    open_log(segment_entries=100).append(subscribe_record(0, ["coffee"]))
    engine = _engine()
    registry = SubscriberRegistry()
    write_checkpoint(directory, 1, checkpoint(engine), registry.snapshot())
    injector = FaultPlan.parse(
        "checkpoint.write@1:torn; checkpoint.write@2:raise"
    ).injector()
    for offset in (2, 3):
        with pytest.raises(ReproError):
            write_checkpoint(
                directory,
                offset,
                checkpoint(engine),
                registry.snapshot(),
                injector=injector,
            )
    stale = sorted(
        os.path.basename(checkpoint_path(directory, offset)) + ".tmp"
        for offset in (2, 3)
    )
    assert sorted(
        name for name in os.listdir(directory) if name.endswith(".tmp")
    ) == stale

    state = recover(directory, _engine())
    state.log.close()
    assert state.checkpoint_offset == 1
    assert not [name for name in os.listdir(directory) if name.endswith(".tmp")]


# -- server runtime integration --------------------------------------------


def small_engine():
    return DasEngine.for_method("GIFilter", k=3, block_size=4)


def eventlog_config(directory, **overrides):
    options = dict(
        eventlog_dir=directory,
        eventlog_segment_entries=4,
        outbound_capacity=256,
    )
    options.update(overrides)
    return ServerConfig(**options)


async def drain(client, count, timeout=5.0):
    messages = []
    for _ in range(count):
        messages.append(await client.next_message(timeout=timeout))
    return messages


def test_runtime_resume_ack_dlq_ops(tmp_path):
    directory = str(tmp_path / "log")

    async def scenario():
        runtime = ServerRuntime(small_engine(), eventlog_config(directory))
        await runtime.start()
        client = InProcessClient(runtime)
        attach = await client.resume("alice", -1)
        assert attach["subscriber"] == "alice"
        assert attach["acked"] == -1
        assert attach["queries"] == [] and attach["replayed"] == 0
        sub = await client.subscribe(["coffee"])
        ack = await client.publish(tokens=["coffee", "beans"], created_at=1.0)
        assert ack["offset"] == 1  # offset 0 was the subscribe
        note = (await drain(client, 1))[0]
        assert note["op"] == "notify"
        assert note["offset"] == 1
        assert note["query_id"] == sub["query_id"]
        acked = await client.ack(1)
        assert acked["trimmed"] == 1
        stats = await client.stats()
        assert stats["eventlog"]["end"] == 3  # subscribe, publish, ack
        assert stats["dlq"]["entries"] == 0
        names = [s["name"] for s in stats["subscribers"]["subscribers"]]
        assert names == ["alice"]
        report = await client.dlq()
        assert report["enabled"] and report["entries"] == []
        await client.close()
        await runtime.stop()

    run(scenario())


def test_ack_past_the_log_end_is_refused(tmp_path):
    """An ack at or past the log's end names an op that does not exist
    yet: it gets an error reply and is not logged, so it cannot raise the
    acked floor over later notifications and silence the subscriber.  A
    resume offset is an ack too, refused before the subscriber exists."""
    directory = str(tmp_path / "log")

    async def scenario():
        runtime = ServerRuntime(small_engine(), eventlog_config(directory))
        await runtime.start()
        client = InProcessClient(runtime)
        for offset in (10**9, 0):  # the empty log's end is 0
            with pytest.raises(ProtocolError, match="past the log's end"):
                await client.resume("alice", offset)
        assert (await client.stats())["subscribers"]["subscribers"] == []
        await client.resume("alice", -1)
        sub = await client.subscribe(["coffee"])  # offset 0
        end = (await client.stats())["eventlog"]["end"]
        assert end == 1
        for offset in (10**9, end):
            with pytest.raises(ProtocolError, match="past the log's end"):
                await client.ack(offset)
        assert (await client.stats())["eventlog"]["end"] == end
        state = (await client.stats())["subscribers"]["subscribers"][0]
        assert state["acked"] == -1
        # Detach, publish, reattach: the missed notification is replayed.
        await client.close()
        published = await InProcessClient(runtime).publish(
            tokens=["coffee"], created_at=1.0
        )
        assert published["offset"] == end
        client = InProcessClient(runtime)
        with pytest.raises(ProtocolError, match="past the log's end"):
            await client.resume("alice", end + 1)
        resumed = await client.resume("alice")
        assert resumed["acked"] == -1 and resumed["replayed"] == 1
        missed = (await drain(client, 1))[0]
        assert missed["offset"] == published["offset"]
        assert missed["query_id"] == sub["query_id"]
        # The last logged offset itself is a valid ack.
        acked = await client.ack(missed["offset"])
        assert acked["acked"] == missed["offset"] and acked["trimmed"] == 1
        await client.close()
        await runtime.stop()

    run(scenario())


@pytest.mark.parametrize(
    "mode, refused",
    [
        # The tokenizer leaves no keyword: the query is empty.
        (
            "decay",
            [({"op": "subscribe", "text": "the of and"}, EmptyQueryError)],
        ),
        # Spatial mode needs a location inside the unit square.
        (
            "spatial",
            [
                (
                    {"op": "subscribe", "keywords": ["coffee"]},
                    ConfigurationError,
                ),
                (
                    {
                        "op": "subscribe",
                        "keywords": ["coffee"],
                        "location": [1.5, 0.5],
                    },
                    ConfigurationError,
                ),
            ],
        ),
        # An anonymous unsubscribe may name any query, but not one the
        # engine does not hold.
        (
            "decay",
            [({"op": "unsubscribe", "query_id": 999}, UnknownQueryError)],
        ),
    ],
)
def test_refused_subscribe_is_not_logged(tmp_path, mode, refused):
    """A subscribe or unsubscribe the engine refuses gets an error reply
    and writes no log record: the log's end does not move, the next
    accepted subscribe still gets id 0, and a restart replays the log
    without an error."""
    directory = str(tmp_path / "log")

    def runtime():
        engine = DasEngine.for_method(
            "GIFilter", k=3, block_size=4, mode=mode, spatial_cells=3
        )
        return ServerRuntime(engine, eventlog_config(directory))

    async def before():
        server = runtime()
        await server.start()
        client = InProcessClient(server)
        for request, error in refused:
            with pytest.raises(error):
                raise_for_reply(await server.handle_request(None, request))
        end = (await client.stats())["eventlog"]["end"]
        accepted = await client.request(
            {"op": "subscribe", "keywords": ["coffee"], "location": [0.5, 0.5]}
        )
        await server.stop()
        return end, accepted["query_id"]

    assert run(before()) == (0, 0)

    async def after():
        server = runtime()
        await server.start()
        recovery = server.stats()["eventlog"]["recovery"]
        queries = server.engine.query_count
        await server.stop()
        return recovery, queries

    recovery, queries = run(after())
    assert recovery["replay_errors"] == 0 and recovery["replayed"] == 1
    assert queries == 1


@pytest.mark.parametrize(
    "plan, checkpoint_every",
    [("eventlog.match@2:raise", 0), ("engine.publish_batch@2:raise", 1)],
)
def test_a_logged_batch_that_fails_to_match_fail_stops_the_runtime(
    tmp_path, plan, checkpoint_every
):
    """A batch that fails after its append leaves the log holding a
    publish the engine does not: the runtime fails that batch, then
    refuses every later request instead of serving results no replay
    reproduces, and writes no checkpoint that would skip the batch.
    stats stays readable, stop stays idempotent, and a restart on the
    directory recovers the logged publish."""
    directory = str(tmp_path / "log")

    async def scenario():
        runtime = ServerRuntime(
            small_engine(),
            eventlog_config(
                directory,
                fault_injector=FaultPlan.parse(plan).injector(),
                eventlog_checkpoint_every=checkpoint_every,
            ),
        )
        await runtime.start()
        client = InProcessClient(runtime)
        query_id = (await client.subscribe(["coffee"]))["query_id"]
        assert (await client.publish(tokens=["coffee", "a"]))["doc_id"] == 0
        with pytest.raises(InjectedFaultError):
            await client.publish(tokens=["coffee", "b"])
        for refused in (
            client.publish(tokens=["coffee", "c"]),
            client.results(query_id),
            client.subscribe(["tea"]),
        ):
            with pytest.raises(ServerClosedError):
                await refused
        stats = await client.stats()
        assert stats["state"] == "failed"
        assert stats["matcher_errors"] == 1
        assert stats["eventlog"]["end"] == 3  # subscribe and two publishes
        await runtime.stop(drain=False)
        await runtime.stop()
        assert runtime.state == "stopped"

        restarted = ServerRuntime(small_engine(), eventlog_config(directory))
        await restarted.start()
        results = await InProcessClient(restarted).results(query_id)
        await restarted.stop()
        return [document["doc_id"] for document in results]

    assert run(scenario()) == [1, 0]


def test_a_batch_that_fails_before_its_append_keeps_serving(tmp_path):
    """A failure before anything is logged fails only its batch."""
    directory = str(tmp_path / "log")

    async def scenario():
        runtime = ServerRuntime(
            small_engine(),
            eventlog_config(
                directory,
                fault_injector=FaultPlan.parse("eventlog.fault@2").injector(),
            ),
        )
        await runtime.start()
        client = InProcessClient(runtime)
        query_id = (await client.subscribe(["coffee"]))["query_id"]
        with pytest.raises(InjectedFaultError):
            await client.publish(tokens=["coffee", "a"])
        await client.publish(tokens=["coffee", "b"])
        results = await client.results(query_id)
        state = runtime.state
        await client.close()
        await runtime.stop()
        return state, [document["doc_id"] for document in results]

    assert run(scenario()) == ("running", [1])


def test_runtime_restart_replays_and_resumes_catchup(tmp_path):
    directory = str(tmp_path / "log")

    async def before():
        runtime = ServerRuntime(small_engine(), eventlog_config(directory))
        await runtime.start()
        client = InProcessClient(runtime)
        await client.resume("alice", -1)
        sub = await client.subscribe(["coffee"])
        await client.publish(tokens=["coffee"], created_at=1.0)
        note = (await drain(client, 1))[0]
        await client.ack(note["offset"])
        # Generated but never delivered to a live session: alice is
        # detached when the "crash" happens.
        await client.close()
        await InProcessClient(runtime).publish(
            tokens=["coffee", "fresh"], created_at=2.0
        )
        await runtime.stop(drain=False)
        return sub["query_id"], note["offset"]

    query_id, acked_offset = run(before())

    async def after():
        runtime = ServerRuntime(small_engine(), eventlog_config(directory))
        await runtime.start()
        stats = await InProcessClient(runtime).stats()
        assert stats["eventlog"]["recovery"]["replayed"] >= 4
        client = InProcessClient(runtime)
        resumed = await client.resume("alice")
        assert resumed["queries"] == [query_id]
        assert resumed["acked"] == acked_offset
        assert resumed["replayed"] == 1
        missed = (await drain(client, 1))[0]
        assert missed["offset"] > acked_offset
        assert missed["document"]["doc_id"] == 1
        # The stream continues live on the same query id.
        await client.publish(tokens=["coffee", "again"], created_at=3.0)
        live = (await drain(client, 1))[0]
        assert live["query_id"] == query_id
        assert live["offset"] > missed["offset"]
        await client.close()
        await runtime.stop()

    run(after())


def test_malformed_requests_never_reach_the_log_or_a_batch(tmp_path):
    """A request whose terms the engine cannot take is refused before it
    is queued: it writes no record (a logged one would fail again on
    every restart), a bad publish does not fail the good ones sharing
    its micro-batch or burn their doc ids, and the log restarts."""
    directory = str(tmp_path / "log")
    refused = [
        {"op": "subscribe", "keywords": ["coffee", 5]},
        {"op": "subscribe", "keywords": [5]},
        {"op": "subscribe", "text": 5},
        {"op": "results", "query_id": True},
        {"op": "unsubscribe", "query_id": False},
    ]

    async def before():
        runtime = ServerRuntime(small_engine(), eventlog_config(directory))
        await runtime.start()
        client = InProcessClient(runtime)
        await client.resume("alice", -1)
        sub = await client.subscribe(["coffee"])
        for payload in refused:
            with pytest.raises(ProtocolError):
                await client.request(payload)
        assert (await client.stats())["eventlog"]["end"] == 1
        replies = await asyncio.gather(
            client.publish(tokens=["coffee"], created_at=1.0),
            client.request(
                {"op": "publish", "tokens": [7, "coffee"], "created_at": 1.0}
            ),
            client.publish(tokens=["coffee", "beans"], created_at=2.0),
            return_exceptions=True,
        )
        assert isinstance(replies[1], ProtocolError)
        assert [reply["doc_id"] for reply in replies[::2]] == [0, 1]
        assert len(await drain(client, 2)) == 2
        assert (await client.stats())["eventlog"]["end"] == 3
        await client.close()
        await runtime.stop(drain=False)
        return sub["query_id"]

    query_id = run(before())

    async def after():
        runtime = ServerRuntime(small_engine(), eventlog_config(directory))
        await runtime.start()
        client = InProcessClient(runtime)
        results = await client.results(query_id)
        assert [row["doc_id"] for row in results] == [1, 0]
        assert (await client.subscribe(["beans"]))["query_id"] == query_id + 1
        await client.close()
        await runtime.stop()

    run(after())


def test_subscriber_lag_and_slow_consumer_gauges(tmp_path):
    """"How far behind is subscriber s" from the running server: ``lag``
    in stats.subscribers and the lag / outbox / dead-letter gauges."""
    directory = str(tmp_path / "log")

    async def scenario():
        runtime = ServerRuntime(
            small_engine(), eventlog_config(directory, outbox_capacity=3)
        )
        await runtime.start()
        client = InProcessClient(runtime)
        await client.resume("alice", -1)
        await client.subscribe(["coffee"])  # offset 0
        for i in range(5):  # offsets 1..5, one notification each
            await client.publish(
                tokens=["coffee", f"u{i}"], created_at=float(i + 1)
            )
        behind = (await client.stats())["subscribers"]["subscribers"][0]
        behind_text = await client.metrics()
        await client.ack(5)  # logged at offset 6
        caught_up = (await client.stats())["subscribers"]["subscribers"][0]
        caught_up_text = await client.metrics()
        await client.close()
        await runtime.stop()
        return behind, behind_text, caught_up, caught_up_text

    behind, behind_text, caught_up, caught_up_text = run(scenario())
    # Nothing acked yet: all six records are ahead of the subscriber,
    # the 3-entry outbox is full and two notifications overflowed.
    assert (behind["acked"], behind["lag"]) == (-1, 6)
    assert (behind["outbox_depth"], behind["dead_lettered"]) == (3, 2)
    assert "repro_subscriber_lag_max 6" in behind_text
    assert "repro_outbox_depth_max 3" in behind_text
    assert "repro_dead_lettered_total 2" in behind_text
    # After the ack only the ack record itself is past the acked offset.
    assert (caught_up["acked"], caught_up["lag"]) == (5, 1)
    assert "repro_subscriber_lag_max 1" in caught_up_text
    assert "repro_outbox_depth_max 0" in caught_up_text
    assert "repro_dead_lettered_total 2" in caught_up_text


def test_notification_payload_is_built_once_and_shared(tmp_path):
    directory = str(tmp_path / "log")

    async def scenario():
        runtime = ServerRuntime(small_engine(), eventlog_config(directory))
        await runtime.start()
        client = InProcessClient(runtime)
        await client.resume("alice", -1)
        await client.subscribe(["coffee"])
        await client.subscribe(["beans"])
        await client.publish(tokens=["coffee", "beans"], created_at=1.0)
        delivered = await drain(client, 2)
        retained = [
            entry["payload"] for entry in runtime._registry.get("alice").outbox
        ]
        await client.close()
        await runtime.stop()
        return delivered, retained

    delivered, retained = run(scenario())
    # The session queue and the durable outbox hold the same dict, and
    # both notifications of the one publish share its document payload.
    assert [id(payload) for payload in delivered] == [
        id(payload) for payload in retained
    ]
    assert delivered[0]["document"] is delivered[1]["document"]
    assert delivered[0]["query_id"] != delivered[1]["query_id"]


def test_runtime_resume_conflicts(tmp_path):
    directory = str(tmp_path / "log")

    async def scenario():
        runtime = ServerRuntime(small_engine(), eventlog_config(directory))
        await runtime.start()
        first = InProcessClient(runtime)
        await first.resume("alice")
        second = InProcessClient(runtime)
        with pytest.raises(ReproError):
            await second.resume("alice")  # still attached elsewhere
        with pytest.raises(ReproError):
            await first.resume("bob")  # one identity per session
        await first.close()
        taken_over = await second.resume("alice")  # detached now: fine
        assert taken_over["subscriber"] == "alice"
        await second.close()
        await runtime.stop()

    run(scenario())


def test_runtime_overflow_lands_in_dlq(tmp_path):
    directory = str(tmp_path / "log")

    async def scenario():
        runtime = ServerRuntime(
            small_engine(),
            eventlog_config(directory, outbox_capacity=2),
        )
        await runtime.start()
        client = InProcessClient(runtime)
        await client.resume("alice", -1)
        await client.subscribe(["coffee"])
        await client.close()  # detach: everything buffers in the outbox
        publisher = InProcessClient(runtime)
        for i in range(4):
            await publisher.publish(
                tokens=["coffee", f"u{i}"], created_at=float(i)
            )
        report = await publisher.dlq()
        overflowed = report["stats"]["by_reason"].get("overflow", 0)
        assert overflowed >= 1
        assert all(e["reason"] == "overflow" for e in report["entries"])
        stats = await publisher.stats()
        assert stats["dlq"]["entries"] == overflowed
        await publisher.close()
        await runtime.stop()
        # The DLQ segment is inspectable offline (the `dlq` CLI path).
        assert len(read_dlq(directory)) == overflowed

    run(scenario())


def test_runtime_throttling_counts_and_stats(tmp_path):
    directory = str(tmp_path / "log")

    async def scenario():
        runtime = ServerRuntime(
            small_engine(),
            eventlog_config(
                directory, throttle_rate=200.0, throttle_burst=1
            ),
        )
        await runtime.start()
        client = InProcessClient(runtime)
        for i in range(4):
            await client.publish(tokens=["coffee"], created_at=float(i))
        stats = await client.stats()
        throttling = stats["throttling"]
        assert throttling["rate"] == 200.0
        assert throttling["throttled_publishes"] >= 1
        assert throttling["total_wait"] > 0.0
        await client.close()
        await runtime.stop()

    run(scenario())


def test_checkpoint_truncates_past_a_subscriber_that_never_acks(tmp_path):
    """The newest checkpoint alone decides what the log keeps: a durable
    subscriber that never acks pins no segment below it.  The checkpoint
    carries that subscriber's outbox, so a restart still recovers the
    same results and ``resume`` replays every un-acked notification."""
    directory = str(tmp_path / "log")

    async def before():
        runtime = ServerRuntime(small_engine(), eventlog_config(directory))
        await runtime.start()
        client = InProcessClient(runtime)
        await client.resume("alice", -1)
        query_id = (await client.subscribe(["coffee"]))["query_id"]
        for i in range(10):  # offsets 1..10, over three 4-entry segments
            await client.publish(
                tokens=["coffee", f"t{i}"], created_at=float(i)
            )
        result = await runtime.checkpoint_eventlog()
        assert result["offset"] == 11
        stats = await client.stats()
        assert stats["eventlog"]["checkpoint_offset"] == 11
        # Offset 11 lies in the segment based at 8; the two below go.
        assert stats["eventlog"]["base"] == 8
        assert result["log_base"] == 8 and result["reclaimed_bytes"] > 0
        (alice,) = stats["subscribers"]["subscribers"]
        assert alice["acked"] == -1 and alice["outbox_depth"] > 0
        notes = await drain(client, alice["outbox_depth"])
        results = await client.results(query_id)
        await client.close()
        await runtime.stop()
        return query_id, notes, results

    query_id, notes, results = run(before())

    async def after():
        runtime = ServerRuntime(small_engine(), eventlog_config(directory))
        await runtime.start()
        client = InProcessClient(runtime)
        stats = await client.stats()
        assert stats["eventlog"]["recovery"]["checkpoint_offset"] == 11
        assert await client.results(query_id) == results
        resumed = await client.resume("alice")
        assert resumed["queries"] == [query_id]
        assert resumed["acked"] == -1
        assert resumed["replayed"] == len(notes)
        assert await drain(client, len(notes)) == notes
        await client.close()
        await runtime.stop()

    run(after())


def test_restart_on_a_checkpoint_seeds_new_subscriptions_as_the_writer(
    tmp_path,
):
    """A runtime restarted on a directory holding an event-log checkpoint
    runs the engine recovery rebuilt (not the fresh one it was given),
    and that engine seeds a new subscription exactly as the engine that
    wrote the checkpoint: the same seed ids and bit-equal stored TRel,
    with more and with fewer matching documents than k."""
    directory = str(tmp_path / "log")
    probes = [["coffee"], ["tea"], ["coffee", "tea"], ["cake"], ["scone"]]

    async def before():
        runtime = ServerRuntime(small_engine(), eventlog_config(directory))
        await runtime.start()
        client = InProcessClient(runtime)
        await client.subscribe(["coffee"])
        for i in range(12):
            tokens = ["coffee"] * (1 + i % 3) + [f"w{i % 5}"]
            if i % 2:
                tokens.append("tea")
            if i == 7:
                tokens.append("cake")
            await client.publish(tokens=tokens, created_at=float(i))
        result = await runtime.checkpoint_eventlog()
        assert result["offset"] == 13
        writer = runtime.engine
        await client.close()
        await runtime.stop()
        return writer

    writer = run(before())
    config = writer.config
    assert [
        len(writer.store.recent_matching(terms, config.init_scan_limit))
        for terms in probes
    ] == [12, 6, 12, 1, 0]

    async def after():
        provided = small_engine()
        runtime = ServerRuntime(provided, eventlog_config(directory))
        await runtime.start()
        assert runtime.engine is not provided
        client = InProcessClient(runtime)
        stats = await client.stats()
        assert stats["eventlog"]["recovery"]["checkpoint_offset"] == 13
        for terms in probes:
            reply = await client.subscribe(terms)
            query_id = reply["query_id"]
            expected = writer.subscribe(DasQuery(query_id, terms))
            assert [d["doc_id"] for d in reply["initial"]] == [
                d.doc_id for d in expected
            ]
            assert [
                trel.hex()
                for trel in runtime.engine._result_sets[query_id]._trels
            ] == [trel.hex() for trel in writer._result_sets[query_id]._trels]
        await client.close()
        await runtime.stop()

    run(after())


def test_checkpoint_name_is_durable_before_the_log_behind_it_goes(
    tmp_path, monkeypatch
):
    """A checkpoint reclaims the log it covers only after its own name
    reached the disk: the checkpoint file is replaced into place, the
    directory is fsynced, and only then is a segment removed."""
    directory = str(tmp_path / "log")
    events = _record_directory_syncs(monkeypatch)

    async def scenario():
        runtime = ServerRuntime(small_engine(), eventlog_config(directory))
        await runtime.start()
        client = InProcessClient(runtime)
        await client.resume("alice", -1)
        await client.subscribe(["coffee"])
        for i in range(8):
            await client.publish(tokens=["coffee"], created_at=float(i))
        await client.ack(8)
        del events[:]
        result = await runtime.checkpoint_eventlog()
        assert result["log_base"] == 8
        await client.close()
        await runtime.stop()

    run(scenario())
    replaced = events.index(
        ("replace", os.path.basename(checkpoint_path(directory, 10)))
    )
    synced = events.index(("dir-fsync",), replaced)
    removed = [
        position
        for position, event in enumerate(events)
        if event[0] == "remove" and event[1].startswith("events-")
    ]
    assert removed and replaced < synced < removed[0]


def test_runtime_periodic_checkpointing(tmp_path):
    directory = str(tmp_path / "log")

    async def scenario():
        runtime = ServerRuntime(
            small_engine(),
            eventlog_config(directory, eventlog_checkpoint_every=3),
        )
        await runtime.start()
        client = InProcessClient(runtime)
        for i in range(7):
            await client.publish(tokens=["coffee"], created_at=float(i))
        stats = await client.stats()
        assert stats["eventlog"]["checkpoints_written"] >= 2
        assert stats["eventlog"]["checkpoint_offset"] >= 6
        await client.close()
        await runtime.stop()

    run(scenario())


def test_runtime_anonymous_queries_retire_in_log(tmp_path):
    directory = str(tmp_path / "log")

    async def scenario():
        runtime = ServerRuntime(small_engine(), eventlog_config(directory))
        await runtime.start()
        client = InProcessClient(runtime)
        sub = await client.subscribe(["coffee"])
        await client.close()  # anonymous: the query retires with it
        await runtime.stop()
        return sub["query_id"]

    query_id = run(scenario())

    async def after():
        runtime = ServerRuntime(small_engine(), eventlog_config(directory))
        await runtime.start()
        client = InProcessClient(runtime)
        with pytest.raises(ReproError):
            await client.results(query_id)  # not resurrected by replay
        await client.close()
        await runtime.stop()

    run(after())


def test_eventlog_requires_checkpointable_engine(tmp_path):
    """Recovery restores a checkpoint into an engine of its own, which
    replaces the one the runtime was given; an engine that already holds
    state would be dropped in silence, so the runtime refuses it."""
    directory = str(tmp_path / "log")

    async def scenario():
        runtime = ServerRuntime(small_engine(), eventlog_config(directory))
        await runtime.start()
        await InProcessClient(runtime).subscribe(["coffee"])
        await runtime.checkpoint_eventlog()
        await runtime.stop()

        busy = small_engine()
        busy.subscribe(DasQuery(0, ["tea"]))
        runtime = ServerRuntime(busy, eventlog_config(directory))
        with pytest.raises(ConfigurationError, match="fresh engine"):
            await runtime.start()

    run(scenario())


def test_resume_requires_eventlog(tmp_path):
    async def scenario():
        runtime = ServerRuntime(small_engine(), ServerConfig())
        await runtime.start()
        client = InProcessClient(runtime)
        with pytest.raises(ReproError):
            await client.resume("alice")
        with pytest.raises(ReproError):
            await client.ack(0)
        report = await client.dlq()  # inspectable even when disabled
        assert report["enabled"] is False and report["entries"] == []
        stats = await client.stats()
        assert stats["eventlog"] is None
        assert stats["throttling"] is None
        await client.close()
        await runtime.stop()

    run(scenario())


def test_resume_and_ack_without_a_session_are_refused(tmp_path):
    """The anonymous ops (no session) have no subscriber to resume or
    ack as: both get an error reply, and nothing is logged or
    registered."""
    directory = str(tmp_path / "log")

    async def scenario():
        runtime = ServerRuntime(small_engine(), eventlog_config(directory))
        await runtime.start()
        for request in (
            {"op": "resume", "subscriber": "alice"},
            {"op": "ack", "offset": 0},
        ):
            with pytest.raises(ReproError, match="requires a session"):
                raise_for_reply(await runtime.handle_request(None, request))
        stats = runtime.stats()
        assert stats["eventlog"]["end"] == 0
        assert stats["subscribers"]["subscribers"] == []
        await runtime.stop()

    run(scenario())


def test_config_validates_durability_fields(tmp_path):
    with pytest.raises(ConfigurationError):
        ServerConfig(eventlog_dir=str(tmp_path), eventlog_fsync="sometimes")
    with pytest.raises(ConfigurationError):
        ServerConfig(eventlog_dir=str(tmp_path), eventlog_segment_entries=0)
    with pytest.raises(ConfigurationError):
        ServerConfig(outbox_capacity=0)
    with pytest.raises(ConfigurationError):
        ServerConfig(throttle_rate=-1.0)
    with pytest.raises(ConfigurationError):
        ServerConfig(throttle_burst=0)
