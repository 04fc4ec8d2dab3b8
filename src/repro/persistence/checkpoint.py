"""Engine checkpointing: serialise a live engine to a JSON-safe dict.

A checkpoint captures everything the engine cannot rebuild from code:
configuration, simulated time, collection statistics, the document
store, the subscriptions, the highest query id ever subscribed (so an
unsubscribed id is never accepted again), each query's result table
(document ids, cached TRel, accumulated similarities, R1 membership; of the
accumulated similarities only the oldest row's is read back — the rest
are re-derived, see ``_restore_query``) and where the group-check
backoff stands.  Derived structures — the inverted file's block
summaries, MCS covers, aggregated term weight tables — are *not* stored;
they are reconstructed on restore (summaries lazily, AW tables eagerly
for full result tables; a warm-up table is restored as its rows), which
keeps checkpoints small and forward-compatible.

``restore`` returns an engine whose observable behaviour is identical to
the original: same results, same thresholds, same future decisions
(property-tested in ``tests/test_persistence.py``).
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, List, Optional

from repro.config import EngineConfig
from repro.core.engine import DasEngine
from repro.core.query import DasQuery
from repro.core.result_set import QueryResultSet
from repro.stream.document import Document
from repro.text.vectors import TermVector, intern_term

#: Format marker for forward compatibility.
CHECKPOINT_VERSION = 1


def _config_to_dict(config: EngineConfig) -> Dict:
    return dataclasses.asdict(config)


def _config_from_dict(payload: Dict) -> EngineConfig:
    payload = dict(payload)
    # Older files name a kernel backend ("auto" / "python" / "numpy");
    # the engine has one cosine kernel, so the key is ignored.
    payload.pop("backend", None)
    # Older files name a group bound ("strict" / "paper"); the engine has
    # one, the exact one.  A "paper" file restores under it too: a skip
    # is optional, and the exact bound skips only where Eq. 19 verbatim
    # would have.
    payload.pop("group_bound_mode", None)
    return EngineConfig(**payload)


def checkpoint(engine: DasEngine) -> Dict:
    """Capture the engine's full logical state as a JSON-safe dict."""
    stats = engine.stats
    documents = []
    for document in engine.store:
        record = {
            "id": document.doc_id,
            "tf": dict(document.vector.items()),
            "t": document.created_at,
            "text": document.text,
        }
        if document.location is not None:
            record["loc"] = list(document.location)
        documents.append(record)
    queries = []
    for query_id in sorted(engine._queries):
        query = engine._queries[query_id]
        record = {
            "id": query_id,
            "terms": list(query.terms),
        }
        if query.location is not None:
            record["location"] = list(query.location)
        if query.window is not None:
            record["window"] = query.window
        if engine.strategy is None:
            result_set = engine._result_sets[query_id]
            record["results"] = [
                {
                    "doc": document.doc_id,
                    "trel": trel,
                    "sim_acc": sim_acc,
                    "in_r1": in_r1,
                }
                for document, trel, sim_acc, in_r1, _ in result_set.rows()
            ]
        queries.append(record)
    payload = {
        "version": CHECKPOINT_VERSION,
        "config": _config_to_dict(engine.config),
        "now": engine.clock.now,
        "stats": {
            "term_counts": dict(stats._term_counts),
            "total_tokens": stats.total_tokens,
            "total_documents": stats.total_documents,
        },
        "documents": documents,
        "queries": queries,
        "last_query_id": engine._last_query_id,
        "counters": engine.counters.as_dict(),
        # Where the group-check backoff stands, so the restored engine
        # checks the same boundaries the original would have.
        "check_backoff": [engine._check_backoff, engine._check_sitout],
    }
    if engine.strategy is not None:
        # Strategy modes own their result/candidate state; per-query
        # ``results`` rows above are replaced by one strategy blob.
        payload["strategy"] = engine.strategy.checkpoint_state()
    return payload


def restore(payload: Dict) -> DasEngine:
    """Rebuild an engine from a checkpoint dict (either schema: a
    sharded one loads as one engine, see :func:`_merge_shards`)."""
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    if payload.get("sharded"):
        payload = _merge_shards(payload)
    engine = DasEngine(_config_from_dict(payload["config"]))

    # Collection statistics are restored wholesale (re-adding documents
    # would double-count documents that were evicted from the store but
    # already folded into the statistics).  Their terms are interned
    # like a TermVector's, so the documents below share these objects.
    stats = engine.stats
    stats._term_counts = {
        intern_term(term): int(count)
        for term, count in payload["stats"]["term_counts"].items()
    }
    stats._total_tokens = int(payload["stats"]["total_tokens"])
    stats._total_documents = int(payload["stats"]["total_documents"])

    for record in payload["documents"]:
        engine.store.add(
            Document(
                int(record["id"]),
                TermVector(
                    {term: int(c) for term, c in record["tf"].items()}
                ),
                float(record["t"]),
                record.get("text"),
                record.get("loc"),
            )
        )

    for record in payload["queries"]:
        query = DasQuery(
            int(record["id"]),
            record["terms"],
            location=record.get("location"),
            window=record.get("window"),
        )
        if engine.strategy is not None:
            engine._queries[query.query_id] = query
            engine._last_query_id = query.query_id
            engine.counters.queries_subscribed += 1
        else:
            _restore_query(engine, query, record["results"])
    if engine.strategy is not None:
        engine.strategy.restore_state(payload["strategy"])
    # Files without the key restore the highest live id, which forgets
    # an unsubscribed newest query.
    engine._last_query_id = _last_query_id(payload, engine._last_query_id)

    engine.clock.advance_to(float(payload["now"]))

    # Work counters are restored wholesale, *after* rebuilding, so the
    # recovered engine continues the original's accounting instead of
    # re-counting the rebuild as fresh work (the rebuild above bumps
    # e.g. queries_subscribed; without this, a crash-recovered engine
    # double-counts everything that happened before the checkpoint).
    # Pre-counters checkpoints keep the rebuild-produced values.
    if "counters" in payload:
        engine.counters.load(payload["counters"])
    backoff, sitout = payload.get("check_backoff", (0, 0))
    engine._check_backoff, engine._check_sitout = int(backoff), int(sitout)
    return engine


def _last_query_id(payload: Dict, live_max: Optional[int]) -> Optional[int]:
    last = payload.get("last_query_id")
    return live_max if last is None else int(last)


def _merge_shards(payload: Dict) -> Dict:
    """The single-engine payload of a file in the sharded schema.

    Older releases could split the queries over N in-process engine
    shards that each saw every document, and wrote ``{"sharded": true,
    "shards": [...], "last_query_id": ...}`` with one single-engine
    payload per shard.  Every shard saw the same stream, so config,
    clock and collection statistics are shard 0's; the store is the
    union of the shard stores in id order, whose pins the restored rows
    re-derive (each document's count summed over shards); work counters
    add up field by field, except ``docs_published``, which every shard
    counted for every document.  The group-check backoff restarts at
    0, 0: a skip is optional, so that changes no decision.
    """
    shards = payload["shards"]
    merged = dict(shards[0])
    documents: Dict[int, Dict] = {}
    for shard in shards:
        for record in shard["documents"]:
            documents.setdefault(int(record["id"]), record)
    merged["documents"] = [documents[doc_id] for doc_id in sorted(documents)]
    merged["queries"] = sorted(
        (record for shard in shards for record in shard["queries"]),
        key=lambda record: int(record["id"]),
    )
    if "strategy" in merged:
        merged["strategy"] = dict(
            merged["strategy"],
            queries={
                query_id: row
                for shard in shards
                for query_id, row in shard["strategy"]["queries"].items()
            },
        )
    if "counters" in merged:
        counters: Dict[str, int] = {}
        for shard in shards:
            for name, value in shard["counters"].items():
                counters[name] = counters.get(name, 0) + int(value)
        counters["docs_published"] = int(merged["counters"]["docs_published"])
        merged["counters"] = counters
    merged["last_query_id"] = payload.get("last_query_id")
    merged["check_backoff"] = [0, 0]
    return merged


def _restore_query(engine: DasEngine, query: DasQuery, rows: List[Dict]) -> None:
    """Register a query and rebuild its result table."""
    result_set = QueryResultSet(
        engine.config.k,
        budget=engine._budget,
        track_aggregated_weights=engine.config.use_agg_weights,
        alpha=engine.config.alpha,
        coeff=engine._coeff,
    )
    documents = []
    for row in rows:
        document = engine.store.get(int(row["doc"]))
        if document is None:
            raise ValueError(
                f"checkpoint references missing document {row['doc']}"
            )
        documents.append(document)
        engine.store.pin(document.doc_id)
    # A warm-up table is its rows: whatever ``sim_acc`` / ``in_r1`` an
    # older file carries for them is recomputed when the table fills.
    full = len(documents) >= result_set.k
    result_set.restore(
        documents,
        [float(row["trel"]) for row in rows],
        [bool(row["in_r1"]) for row in rows] if full else (),
        float(rows[0]["sim_acc"]) if full else 0.0,
    )
    engine._queries[query.query_id] = query
    engine._result_sets[query.query_id] = result_set
    engine._last_query_id = query.query_id
    engine._memberships[query.query_id] = engine._index.insert(query)
    engine.counters.queries_subscribed += 1


def _write_atomic(
    path: str, data: str, injector: Optional[object] = None, fsync="always"
) -> None:
    """Write ``data`` to ``path`` so a crash leaves the old file or the new.

    The data goes to a sibling temp file, is fsynced, and is moved into
    place with ``os.replace``; the directory is then fsynced under the
    ``fsync`` policy (skipped under ``never``), so the new name survives
    a crash too.  A crash mid-write (simulated through the
    ``checkpoint.write`` injection point of ``injector``) leaves any
    previous file at ``path`` intact; a ``torn`` fault leaves a truncated
    temp file behind — never a truncated ``path``.
    """
    # Imported here: repro.eventlog imports this module.
    from repro.eventlog.segments import sync_directory

    tmp_path = path + ".tmp"
    with open(tmp_path, "w") as handle:
        if injector is not None:
            try:
                injector.fire("checkpoint.write")
            except Exception as exc:
                if getattr(exc, "action", "") == "torn":
                    handle.write(data[: len(data) // 2])
                raise
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    sync_directory(os.path.dirname(path) or ".", fsync)


def save(
    engine: DasEngine, path: str, injector: Optional[object] = None
) -> None:
    """Checkpoint the engine to a JSON file, atomically (see
    :func:`_write_atomic`): a crash leaves the previous checkpoint at
    ``path`` or the new one, never a truncated or empty one."""
    _write_atomic(path, json.dumps(checkpoint(engine)), injector)


def load(path: str) -> DasEngine:
    """Restore an engine from a JSON checkpoint file."""
    with open(path) as handle:
        return restore(json.load(handle))
