"""Shared-memory wire tests (ISSUE 6 tentpole): ring + binary codec.

Three layers:

* :class:`~repro.parallel.shm.ShmRing` allocator semantics — FIFO
  reservations, contiguity, wrap-around, full-ring backpressure — plus a
  Hypothesis state-walk asserting reserved regions never overlap;
* the binary batch codec — Hypothesis round-trip over arbitrary
  payloads (ids/counts/text/None), overflow rejection, and the compact
  notification-record codec;
* the live engine — a ring too small for any batch degrades to the
  pickle pipe with identical results, ``REPRO_DISABLE_SHM`` runs
  ring-less, and the default configuration routes every batch through
  shared memory with the pipe-byte reduction the wire was built for.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig
from repro.core.query import DasQuery
from repro.distributed import ShardedDasEngine
from repro.parallel import ParallelShardedEngine
from repro.parallel.shm import ShmRing
from repro.parallel.wire import (
    WIRE_OVERFLOW,
    decode_document_batch,
    decode_notification_records,
    encode_document_batch,
    encode_notification_records,
)
from repro.workloads.corpus import SyntheticTweetCorpus
from repro.workloads.queries import lqd_queries

N_SHARDS = 2


# -- ring allocator ----------------------------------------------------------


def test_ring_reserve_free_cycle():
    ring = ShmRing.create(100)
    try:
        assert ring.try_reserve(60) == 0
        assert ring.try_reserve(30) == 60
        # 10 bytes of tail left, nothing freed: full for a 20-byte ask.
        assert ring.try_reserve(20) is None
        assert ring.free_oldest() == (0, 60)
        # Tail too short for 50, but [0, 60) is free again: wrap to 0.
        assert ring.try_reserve(50) == 0
        assert ring.pending_count() == 2
        assert ring.free_oldest() == (60, 30)
        assert ring.free_oldest() == (0, 50)
        # Empty ring rewinds: the whole buffer is contiguous again.
        assert ring.try_reserve(100) == 0
        assert ring.free_oldest() == (0, 100)
    finally:
        ring.close()


def test_ring_rejects_oversize_and_degenerate():
    ring = ShmRing.create(64)
    try:
        assert ring.try_reserve(65) is None
        assert ring.try_reserve(0) is None
        assert ring.try_reserve(64) == 0
        assert ring.try_reserve(1) is None  # completely full
    finally:
        ring.close()


def test_ring_data_round_trip_across_attach():
    ring = ShmRing.create(256)
    try:
        offset = ring.try_reserve(11)
        ring.write(offset, b"hello wire!")
        reader = ShmRing.attach(ring.name, 256)
        try:
            assert reader.read(offset, 11) == b"hello wire!"
            view = reader.view(offset, 5)
            assert bytes(view) == b"hello"
            view.release()
        finally:
            reader.close()
    finally:
        ring.close()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("reserve"), st.integers(1, 40)),
            st.tuples(st.just("free"), st.just(0)),
        ),
        max_size=60,
    )
)
def test_ring_reservations_never_overlap(ops):
    """Model check: outstanding regions stay disjoint and in bounds."""
    ring = ShmRing.create(100)
    live = []
    try:
        for kind, length in ops:
            if kind == "reserve":
                offset = ring.try_reserve(length)
                if offset is not None:
                    assert 0 <= offset and offset + length <= 100
                    for other_offset, other_length in live:
                        assert (
                            offset + length <= other_offset
                            or other_offset + other_length <= offset
                        ), "reserved regions overlap"
                    live.append((offset, length))
            elif live:
                assert ring.free_oldest() == live.pop(0)
        assert ring.pending_count() == len(live)
    finally:
        ring.close()


# -- binary codec ------------------------------------------------------------


def _payload_strategy():
    ids_counts = st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 65535)),
        max_size=12,
        unique_by=lambda pair: pair[0],
    ).map(sorted)
    return st.tuples(
        st.integers(-(2**62), 2**62),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        ids_counts,
        st.one_of(st.none(), st.text(max_size=40)),
    ).map(
        lambda raw: (
            raw[0],
            raw[1],
            tuple(pair[0] for pair in raw[2]),
            tuple(pair[1] for pair in raw[2]),
            raw[3],
        )
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(_payload_strategy(), max_size=8))
def test_document_batch_codec_round_trip(payloads):
    blob = encode_document_batch(payloads)
    assert decode_document_batch(blob) == [
        (doc_id, created, tuple(ids), tuple(counts), text)
        for doc_id, created, ids, counts, text in payloads
    ]


@settings(max_examples=100, deadline=None)
@given(st.lists(_payload_strategy(), max_size=6), st.integers(0, 200))
def test_document_batch_codec_round_trip_through_ring(payloads, lead):
    """The blob survives the ring, including a wrapped reservation."""
    blob = encode_document_batch(payloads)
    ring = ShmRing.create(max(len(blob), 1) + 256)
    try:
        # Occupy then free a lead region so offsets (and wraps) vary.
        if lead and ring.try_reserve(lead) is not None:
            ring.free_oldest()
        offset = ring.try_reserve(max(len(blob), 1))
        ring.write(offset, blob)
        view = ring.view(offset, len(blob))
        decoded = decode_document_batch(view)
        view.release()
        assert len(decoded) == len(payloads)
    finally:
        ring.close()


def test_document_round_trip_keeps_the_senders_term_order():
    """A worker's rebuilt ``TermVector`` iterates its terms in the
    coordinator's order — through the tuple payload and the binary batch
    codec — so float sums over ``vector.items()`` (every Lemma 6 dot)
    agree to the last bit on both sides, whatever ids the vocabulary
    handed out."""
    from repro.parallel.wire import decode_document, encode_document
    from repro.stream.document import Document
    from repro.text.vocabulary import Vocabulary

    sender, replica = Vocabulary(), Vocabulary()
    for term in ("apple", "mango", "zebra", "kiwi"):  # ids 0..3
        sender.add(term)
        replica.add(term)
    original = Document.from_tokens(
        7, ["zebra", "apple", "zebra", "kiwi", "mango", "apple", "zebra"], 3.5
    )
    assert [t for t, _c in original.vector.items()] != sorted(
        t for t, _c in original.vector.items()
    )
    payload = encode_document(original, sender)
    (through_codec,) = decode_document_batch(encode_document_batch([payload]))
    for wire_payload in (payload, through_codec):
        decoded = decode_document(wire_payload, replica)
        assert list(decoded.vector.items()) == list(original.vector.items())
        assert decoded.vector.norm == original.vector.norm
        assert (decoded.doc_id, decoded.created_at) == (7, 3.5)


@pytest.mark.parametrize(
    "payload",
    [
        (1, 0.0, (5,), (70000,), None),  # count above uint16
        (1, 0.0, (2**33,), (1,), None),  # id above uint32
        (2**70, 0.0, (), (), None),  # doc id above int64
    ],
)
def test_codec_overflow_raises_wire_overflow(payload):
    with pytest.raises(WIRE_OVERFLOW):
        encode_document_batch([payload])


def _note(query_id, doc_id, replaced_id):
    replaced = (
        SimpleNamespace(doc_id=replaced_id)
        if replaced_id is not None
        else None
    )
    return SimpleNamespace(
        query_id=query_id,
        document=SimpleNamespace(doc_id=doc_id),
        replaced=replaced,
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 2**62),
            st.integers(0, 2**62),
            st.one_of(st.none(), st.integers(0, 2**62)),
        ),
        max_size=16,
    )
)
def test_notification_record_codec_round_trip(triples):
    blob = encode_notification_records(
        [_note(*triple) for triple in triples]
    )
    assert decode_notification_records(blob) == list(triples)
    assert len(blob) == 4 + 24 * len(triples)  # fixed-width records


# -- live engine transports --------------------------------------------------


@pytest.fixture(scope="module")
def workload():
    corpus = SyntheticTweetCorpus(
        vocab_size=250, n_topics=8, doc_length=(4, 10), seed=23
    )
    return corpus.documents(80), lqd_queries(corpus, 10, first_id=0)


def _drive(engine, docs, queries):
    log = []
    for query in queries:
        engine.subscribe(DasQuery(query.query_id, query.terms))
    for start in range(0, len(docs), 16):
        for notification in engine.publish_batch(docs[start : start + 16]):
            log.append(
                (
                    notification.query_id,
                    notification.document.doc_id,
                    notification.replaced.doc_id
                    if notification.replaced is not None
                    else None,
                )
            )
    return log


def _sharded_log(docs, queries):
    sharded = ShardedDasEngine(N_SHARDS, EngineConfig(k=4, block_size=8))
    return _drive(sharded, docs, queries)


def test_shm_transport_default_and_pipe_byte_reduction(workload):
    docs, queries = workload
    expected = _sharded_log(docs, queries)
    with ParallelShardedEngine(
        N_SHARDS, EngineConfig(k=4, block_size=8)
    ) as parallel:
        assert _drive(parallel, docs, queries) == expected
        stats = parallel.wire_stats()
    assert stats["transport"] == "shm"
    assert stats["shm_docs"] == len(docs)
    assert stats["pipe_docs"] == 0
    assert stats["shm_fallbacks"] == 0
    assert stats["reply_bytes"] > 0
    # The acceptance criterion the benchmarks gate: per-document pipe
    # serialization collapses once documents travel via shared memory.
    with ParallelShardedEngine(
        N_SHARDS, EngineConfig(k=4, block_size=8)
    ) as piped:
        piped._ring.close()
        piped._ring = None  # force the pickle-pipe transport
        assert _drive(piped, docs, queries) == expected
        pipe_stats = piped.wire_stats()
    assert pipe_stats["pipe_docs"] == len(docs)
    assert (
        pipe_stats["pipe_bytes_per_doc"]
        >= 5.0 * stats["pipe_bytes_per_doc"]
    )


def test_tiny_ring_degrades_to_pipe(monkeypatch, workload):
    docs, queries = workload
    monkeypatch.setenv("REPRO_SHM_RING_BYTES", "32")
    with ParallelShardedEngine(
        N_SHARDS, EngineConfig(k=4, block_size=8)
    ) as parallel:
        assert parallel._ring is not None
        assert parallel._ring.capacity == 32
        assert _drive(parallel, docs, queries) == _sharded_log(
            docs, queries
        )
        stats = parallel.wire_stats()
    assert stats["shm_fallbacks"] > 0
    assert stats["pipe_docs"] == len(docs)
    assert stats["shm_docs"] == 0


def test_disable_shm_env_runs_ringless(monkeypatch, workload):
    docs, queries = workload
    monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
    with ParallelShardedEngine(
        N_SHARDS, EngineConfig(k=4, block_size=8)
    ) as parallel:
        assert parallel._ring is None
        assert _drive(parallel, docs, queries) == _sharded_log(
            docs, queries
        )
        stats = parallel.wire_stats()
    assert stats["transport"] == "pipe"
    assert stats["pipe_docs"] == len(docs)


def test_wire_telemetry_counts_are_coherent(workload):
    docs, queries = workload
    with ParallelShardedEngine(
        N_SHARDS, EngineConfig(k=4, block_size=8)
    ) as parallel:
        for query in queries:
            parallel.subscribe(DasQuery(query.query_id, query.terms))
        batches = 0
        for start in range(0, len(docs), 16):
            parallel.publish_batch(docs[start : start + 16])
            batches += 1
        snapshot = parallel.telemetry_snapshot()
    wire = snapshot["wire"]
    # One decode observation per document per worker, one encode
    # observation per publish request per worker.
    assert sum(wire["wire_decode"]["counts"]) == N_SHARDS * len(docs)
    assert sum(wire["wire_encode"]["counts"]) == N_SHARDS * batches
    assert wire["wire_decode"]["sum"] >= 0.0
    assert snapshot["spans"]["finished"] == N_SHARDS * len(docs)
