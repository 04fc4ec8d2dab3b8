"""Checkpoint round-trip through ShardedDasEngine (ISSUE 3, S2).

The sharded facade carries state the per-shard payloads don't: the
query->shard assignment and the round-robin cursor.  A faithful round
trip must restore both, so routing decisions after restore are
identical to an unfailed engine's.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.config import EngineConfig
from repro.distributed import ShardedDasEngine
from repro.persistence import (
    checkpoint_sharded,
    load,
    restore_sharded,
    save,
)
from repro.workloads.corpus import SyntheticTweetCorpus
from repro.workloads.queries import lqd_queries


@pytest.fixture
def live_sharded():
    corpus = SyntheticTweetCorpus(vocab_size=120, n_topics=5, seed=3)
    engine = ShardedDasEngine(
        3, EngineConfig(k=3, block_size=4)
    )
    docs = corpus.documents(100)
    for document in docs[:40]:
        engine.publish(document)
    for query in lqd_queries(corpus, 12, first_id=0):
        engine.subscribe(query)
    for document in docs[40:70]:
        engine.publish(document)
    return engine, docs


def observable(engine):
    return {
        "assignment": dict(engine._assignment),
        "cursor": engine._next_round_robin,
        "results": {
            qid: [d.doc_id for d in engine.results(qid)]
            for qid in engine._assignment
        },
    }


def test_sharded_payload_is_json_safe(live_sharded):
    engine, _docs = live_sharded
    payload = checkpoint_sharded(engine)
    decoded = json.loads(json.dumps(payload))
    assert decoded["sharded"] is True
    assert len(decoded["shards"]) == 3
    assert decoded["routing"] == "round_robin"


def test_restore_sharded_preserves_observable_state(live_sharded):
    engine, _docs = live_sharded
    clone = restore_sharded(checkpoint_sharded(engine))
    assert clone.n_shards == engine.n_shards
    assert observable(clone) == observable(engine)
    for shard, clone_shard in zip(engine.shards, clone.shards):
        assert clone_shard.clock.now == shard.clock.now
        assert clone_shard.query_count == shard.query_count


def test_restore_sharded_preserves_future_behaviour(live_sharded):
    engine, docs = live_sharded
    clone = restore_sharded(checkpoint_sharded(engine))
    for document in docs[70:]:
        original = engine.publish(document)
        cloned = clone.publish(document)
        assert [(n.query_id, n.document.doc_id) for n in original] == [
            (n.query_id, n.document.doc_id) for n in cloned
        ]
    # New subscriptions route identically (round-robin cursor restored).
    from repro.core.query import DasQuery

    query = DasQuery(900, ["the"])
    engine.subscribe(query)
    clone.subscribe(DasQuery(900, ["the"]))
    assert engine.shard_of(900) == clone.shard_of(900)


def test_save_load_round_trip_dispatches_on_shape(tmp_path, live_sharded):
    engine, _docs = live_sharded
    path = os.path.join(str(tmp_path), "sharded.json")
    save(engine, path)
    clone = load(path)
    assert isinstance(clone, ShardedDasEngine)
    assert observable(clone) == observable(engine)
    assert not os.path.exists(path + ".tmp")  # atomic write cleaned up


def test_save_load_single_shard_still_plain(tmp_path):
    from repro.core.engine import DasEngine

    engine = DasEngine.for_method("GIFilter", k=3, block_size=4)
    path = os.path.join(str(tmp_path), "plain.json")
    save(engine, path)
    assert isinstance(load(path), DasEngine)
