"""Checkpoint files in the sharded schema load as one engine.

Older releases could split the queries over in-process engine shards,
each of which saw every document, and wrote ``{"sharded": true,
"shards": [...]}``: the sharded engine's own ``save``, a sharded
``serve`` with an event log, and the process-parallel engine before
them.  ``load`` / ``restore`` merge such a file into one
:class:`DasEngine` that behaves as a single engine fed the same
operations.
"""

from __future__ import annotations

import asyncio
import json
import os
from collections import defaultdict

import pytest

from repro.config import EngineConfig
from repro.core.engine import DasEngine
from repro.core.query import DasQuery
from repro.errors import QueryOrderError
from repro.persistence import checkpoint, load, restore, save
from repro.workloads.corpus import SyntheticTweetCorpus
from repro.workloads.queries import lqd_queries

#: Written by the two-shard in-process engine at commit 4e4e206, after
#: :func:`parent_history` with ``unsubscribe_newest=True``.
SHARDED_FIXTURE = "checkpoint_parent_4e4e206_sharded.json"
#: Written by the two-worker process-parallel engine at commit f894fff,
#: after :func:`parent_history`; it has no ``last_query_id``.
PARALLEL_FIXTURE = "checkpoint_parent_f894fff_parallel.json"


def fixture_path(name):
    return os.path.join(os.path.dirname(__file__), "fixtures", name)


def parent_history(engine, unsubscribe_newest=False):
    """The operations both fixtures were written after, up to document
    70 of the returned 100."""
    corpus = SyntheticTweetCorpus(vocab_size=120, n_topics=5, seed=3)
    docs = corpus.documents(100)
    for document in docs[:40]:
        engine.publish(document)
    for query in lqd_queries(corpus, 12, first_id=0):
        engine.subscribe(query)
    engine.publish_batch(docs[40:60])
    engine.unsubscribe(4)
    for document in docs[60:70]:
        engine.publish(document)
    if unsubscribe_newest:
        engine.unsubscribe(11)
    return docs


def single_engine():
    return DasEngine(EngineConfig(k=3, block_size=4))


def sharded_schema(payload, n_shards=2):
    """``payload`` rewritten in the sharded schema: queries dealt out
    round-robin in id order, every shard holding every document, and
    the work counters on shard 0 (the others count documents only)."""
    queries = payload["queries"]
    shards = []
    for index in range(n_shards):
        shard = dict(payload, queries=queries[index::n_shards])
        if "strategy" in payload:
            own = {str(record["id"]) for record in shard["queries"]}
            rows = payload["strategy"]["queries"]
            shard["strategy"] = dict(
                payload["strategy"],
                queries={qid: row for qid, row in rows.items() if qid in own},
            )
        if index:
            shard["counters"] = dict.fromkeys(payload["counters"], 0)
            shard["counters"]["docs_published"] = (
                payload["counters"]["docs_published"]
            )
        shards.append(shard)
    return {
        "version": payload["version"],
        "sharded": True,
        "routing": "round_robin",
        "assignment": {
            str(record["id"]): index % n_shards
            for index, record in enumerate(queries)
        },
        "next_round_robin": len(queries) % n_shards,
        "last_query_id": payload["last_query_id"],
        "shards": shards,
    }


def observable(engine):
    return {
        "queries": sorted(engine._queries),
        "results": {
            qid: [d.doc_id for d in engine.results(qid)]
            for qid in engine._queries
        },
        "current_dr": {qid: engine.current_dr(qid) for qid in engine._queries},
        "now": engine.clock.now,
        "stored": [d.doc_id for d in engine.store],
    }


def change_sets(notifications):
    """Per-document sorted changes: inside one document the order is a
    schedule detail (sharded files emitted it shard by shard)."""
    per_document = defaultdict(list)
    for n in notifications:
        per_document[n.document.doc_id].append(
            (n.query_id, n.replaced.doc_id if n.replaced else -1)
        )
    return {doc_id: sorted(changes) for doc_id, changes in per_document.items()}


def continue_both(clone, reference, documents):
    """Feed both engines ``documents``; returns how many replacements
    they made, after asserting equal change sets per document."""
    replaced = 0
    for document in documents:
        expected = change_sets(reference.publish(document))
        assert change_sets(clone.publish(document)) == expected
        replaced += sum(
            old >= 0 for changes in expected.values() for _q, old in changes
        )
    assert observable(clone) == observable(reference)
    return replaced


def accepts(engine, query_id):
    try:
        engine.subscribe(DasQuery(query_id, ["the"]))
    except QueryOrderError:
        return False
    return True


def test_restore_sharded_preserves_observable_state():
    """The two shards of the file become one engine with the state of a
    single engine that lived the same history: queries, result rows,
    DR values, clock, stored documents and their pins.  The store is the
    union of the shard stores: shard 0 stripped of the documents only
    shard 1's rows pin loses nothing."""
    reference = single_engine()
    parent_history(reference, unsubscribe_newest=True)
    with open(fixture_path(SHARDED_FIXTURE)) as handle:
        payload = json.load(handle)
    first, second = payload["shards"]
    pinned = [
        {row["doc"] for record in shard["queries"] for row in record["results"]}
        for shard in (first, second)
    ]
    only_second = pinned[1] - pinned[0]
    assert only_second
    first["documents"] = [
        record for record in first["documents"] if record["id"] not in only_second
    ]
    clone = restore(payload)
    assert isinstance(clone, DasEngine)
    assert observable(clone) == observable(reference)
    assert clone.stats.total_documents == reference.stats.total_documents
    assert clone.counters.docs_published == 70
    assert clone.counters.queries_subscribed == 12
    assert (clone._check_backoff, clone._check_sitout) == (0, 0)


def test_restore_sharded_preserves_future_behaviour():
    reference = single_engine()
    docs = parent_history(reference, unsubscribe_newest=True)
    clone = load(fixture_path(SHARDED_FIXTURE))
    assert continue_both(clone, reference, docs[70:]) > 0


def test_sharded_file_keeps_the_next_query_id_rule():
    """With ``last_query_id`` the unsubscribed newest id 11 stays taken;
    a file without the key falls back to the newest live id, 10."""
    with open(fixture_path(SHARDED_FIXTURE)) as handle:
        payload = json.load(handle)
    assert payload["last_query_id"] == 11
    assert accepts(restore(payload), 11) is False
    assert accepts(restore(payload), 12) is True
    del payload["last_query_id"]
    assert accepts(restore(payload), 11) is True


def test_save_load_round_trip_dispatches_on_shape(tmp_path):
    """A sharded file saved again is a single-engine file of the same
    engine."""
    clone = load(fixture_path(SHARDED_FIXTURE))
    path = os.path.join(str(tmp_path), "merged.json")
    save(clone, path)
    with open(path) as handle:
        assert "sharded" not in json.load(handle)
    again = load(path)
    assert observable(again) == observable(clone)
    assert checkpoint(again) == checkpoint(clone)
    assert not os.path.exists(path + ".tmp")  # atomic write cleaned up


def test_save_load_single_shard_still_plain(tmp_path):
    engine = DasEngine.for_method("GIFilter", k=3, block_size=4)
    path = os.path.join(str(tmp_path), "plain.json")
    save(engine, path)
    assert isinstance(load(path), DasEngine)


def test_file_written_by_parent_parallel_engine_restores_and_continues():
    """The process-parallel engine's file loads as one engine with a
    single engine's state and continues on its change sets; it has no
    ``last_query_id``, so the newest live id (11) stands in."""
    reference = single_engine()
    docs = parent_history(reference)
    clone = load(fixture_path(PARALLEL_FIXTURE))
    assert isinstance(clone, DasEngine)
    assert observable(clone) == observable(reference)
    assert continue_both(clone, reference, docs[70:]) > 0
    assert clone._last_query_id == 11
    assert accepts(clone, 12) is True


def _mode_config(mode):
    return EngineConfig(
        k=3, block_size=4, mode=mode, window_size=12, spatial_cells=3
    )


@pytest.mark.parametrize("mode", ["decay", "window", "spatial"])
def test_sharded_schema_merges_into_the_single_engine_restore(mode):
    """In every mode, a state written in the sharded schema restores to
    exactly the engine its single-engine payload restores to, except
    for the group-check backoff, which restarts — and then both make
    the same decisions."""
    corpus = SyntheticTweetCorpus(vocab_size=120, n_topics=5, seed=9)
    docs = corpus.documents(90, with_locations=(mode == "spatial"))
    rng = corpus.fresh_rng(salt=4)
    engine = DasEngine(_mode_config(mode))
    engine.publish_batch(docs[:20])
    for query in lqd_queries(corpus, 9, first_id=0):
        location = (rng.random(), rng.random()) if mode == "spatial" else None
        engine.subscribe(DasQuery(query.query_id, query.terms, location=location))
    engine.publish_batch(docs[20:50])
    engine.unsubscribe(3)
    payload = checkpoint(engine)

    merged = restore(sharded_schema(payload, n_shards=3))
    single = restore(payload)
    assert checkpoint(merged) == dict(checkpoint(single), check_backoff=[0, 0])
    continue_both(merged, single, docs[50:])


@pytest.mark.parametrize("replayed", [False, True])
def test_served_sharded_restart_never_reissues_a_query_id(tmp_path, replayed):
    """``serve --eventlog-dir``: subscribe 0, 1, 2 and unsubscribe 2,
    checkpointing before the unsubscribe (which the restart then replays
    from the log) or after it.  With the checkpoint rewritten in the
    sharded schema, a restarted plain ``serve`` recovers one engine and
    assigns id 3 next."""
    from repro.eventlog import write_checkpoint
    from repro.eventlog.recovery import latest_checkpoint
    from repro.experiments.cli import build_parser, build_serve_runtime
    from repro.server import InProcessClient

    argv = ["serve", "--port", "0", "--eventlog-dir", str(tmp_path)]

    async def scenario():
        runtime, _tcp = build_serve_runtime(build_parser().parse_args(argv))
        await runtime.start()
        client = InProcessClient(runtime)
        ids = [(await client.subscribe(["w"]))["query_id"] for _ in range(3)]
        if replayed:
            await runtime.checkpoint_eventlog()
        await client.unsubscribe(ids[-1])
        if not replayed:
            await runtime.checkpoint_eventlog()
        await runtime.stop()

        stored = latest_checkpoint(str(tmp_path))
        write_checkpoint(
            str(tmp_path),
            stored["offset"],
            sharded_schema(stored["engine"]),
            stored["subscribers"],
        )

        runtime, _tcp = build_serve_runtime(build_parser().parse_args(argv))
        await runtime.start()
        assert type(runtime.engine) is DasEngine
        recovery = runtime.stats()["eventlog"]["recovery"]
        assert recovery["checkpoint_offset"] >= 0
        assert (recovery["replayed"] > 0) is replayed
        query_id = (await InProcessClient(runtime).subscribe(["w"]))["query_id"]
        await runtime.stop()
        return ids, query_id

    ids, query_id = asyncio.run(asyncio.wait_for(scenario(), 60.0))
    assert ids == [0, 1, 2]
    assert query_id == 3
