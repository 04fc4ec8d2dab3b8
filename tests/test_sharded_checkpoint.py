"""Checkpoint round-trip through ShardedDasEngine (ISSUE 3, S2).

The sharded facade carries state the per-shard payloads don't: the
query->shard assignment and the round-robin cursor.  A faithful round
trip must restore both, so routing decisions after restore are
identical to an unfailed engine's.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.config import EngineConfig
from repro.core.query import DasQuery
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


def change_log(notifications):
    return [
        (n.query_id, n.document.doc_id, n.replaced and n.replaced.doc_id)
        for n in notifications
    ]


def test_file_written_by_parent_parallel_engine_restores_and_continues():
    """``fixtures/checkpoint_parent_f894fff_parallel.json`` was written by
    the last commit with process-parallel workers: its sharded engine
    with two worker processes, fed the operations below up to document 70.
    It loads as a :class:`ShardedDasEngine` with the same routing state
    and continues on the change stream of a sharded engine that lived the
    same history in-process."""
    corpus = SyntheticTweetCorpus(vocab_size=120, n_topics=5, seed=3)
    docs = corpus.documents(100)
    live = ShardedDasEngine(2, EngineConfig(k=3, block_size=4))
    for document in docs[:40]:
        live.publish(document)
    for query in lqd_queries(corpus, 12, first_id=0):
        live.subscribe(query)
    live.publish_batch(docs[40:60])
    live.unsubscribe(4)
    for document in docs[60:70]:
        live.publish(document)

    path = os.path.join(
        os.path.dirname(__file__),
        "fixtures",
        "checkpoint_parent_f894fff_parallel.json",
    )
    clone = load(path)
    assert isinstance(clone, ShardedDasEngine)
    assert observable(clone) == observable(live)
    replaced = 0
    for document in docs[70:]:
        expected = change_log(live.publish(document))
        assert change_log(clone.publish(document)) == expected
        replaced += sum(old is not None for _q, _d, old in expected)
    assert replaced > 0
    for query_id in live._assignment:
        assert clone.current_dr(query_id) == live.current_dr(query_id)
    # The file has no ``last_query_id``: the newest live id (11) stands in.
    for engine in (live, clone):
        engine.subscribe(DasQuery(12, ["the"]))
    assert clone.shard_of(12) == live.shard_of(12)


@pytest.mark.parametrize("checkpointed", [False, True])
def test_served_sharded_restart_never_reissues_a_query_id(
    tmp_path, checkpointed
):
    """``serve --shards 2 --eventlog-dir``: subscribe 0, 1, 2, unsubscribe
    2, restart (recovering from the log alone, or from a checkpoint taken
    after the unsubscribe): the next subscribe is assigned id 3."""
    from repro.experiments.cli import build_parser, build_serve_runtime

    argv = ["serve", "--port", "0", "--shards", "2"]
    argv += ["--eventlog-dir", str(tmp_path)]

    async def scenario():
        runtime, _tcp = build_serve_runtime(build_parser().parse_args(argv))
        await runtime.start()
        session = runtime.open_session()
        ids = [(await runtime.subscribe(session, ["w"]))[0] for _ in range(3)]
        await runtime.unsubscribe(ids[-1], session)
        if checkpointed:
            await runtime.checkpoint_eventlog()
        await runtime.stop()

        runtime, _tcp = build_serve_runtime(build_parser().parse_args(argv))
        await runtime.start()
        assert isinstance(runtime.engine, ShardedDasEngine)
        recovery = runtime.stats()["eventlog"]["recovery"]
        assert (recovery["checkpoint_offset"] >= 0) is checkpointed
        query_id, _initial = await runtime.subscribe(
            runtime.open_session(), ["w"]
        )
        await runtime.stop()
        return ids, query_id

    ids, query_id = asyncio.run(asyncio.wait_for(scenario(), 60.0))
    assert ids == [0, 1, 2]
    assert query_id == 3
