"""Engine checkpointing: serialise a live engine to a JSON-safe dict.

A checkpoint captures everything the engine cannot rebuild from code:
configuration, simulated time, collection statistics, the document
store, the subscriptions, each query's result table (document ids,
cached TRel, accumulated similarities, R1 membership; of the
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

import json
import os
from typing import Dict, List, Optional, Union

from repro.config import EngineConfig, GroupBoundMode
from repro.core.agg_weights import AggregatedTermWeights
from repro.core.engine import DasEngine
from repro.core.query import DasQuery
from repro.core.result_set import ResultEntry
from repro.distributed.sharded import ShardedDasEngine
from repro.stream.document import Document
from repro.text.vectors import TermVector, cosine_similarity

#: Format marker for forward compatibility.
CHECKPOINT_VERSION = 1


def _config_to_dict(config: EngineConfig) -> Dict:
    return {
        "k": config.k,
        "alpha": config.alpha,
        "smoothing_lambda": config.smoothing_lambda,
        "decay_base": config.decay_base,
        "block_size": config.block_size,
        "delta_s": config.delta_s,
        "phi_max": config.phi_max,
        "group_bound_mode": config.group_bound_mode.value,
        "use_blocks": config.use_blocks,
        "use_group_filter": config.use_group_filter,
        "use_agg_weights": config.use_agg_weights,
        "init_scan_limit": config.init_scan_limit,
        "store_capacity": config.store_capacity,
        "mode": config.mode,
        "window_size": config.window_size,
        "spatial_cells": config.spatial_cells,
        "spatial_weight": config.spatial_weight,
    }


def _config_from_dict(payload: Dict) -> EngineConfig:
    payload = dict(payload)
    # Older files name a kernel backend ("auto" / "python" / "numpy");
    # the engine has one cosine kernel, so the key is ignored.
    payload.pop("backend", None)
    payload["group_bound_mode"] = GroupBoundMode(payload["group_bound_mode"])
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
                    "doc": entry.document.doc_id,
                    "trel": entry.trel,
                    "sim_acc": entry.sim_acc,
                    "in_r1": entry.in_r1,
                }
                for entry in result_set.entries
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
    """Rebuild an engine from a checkpoint dict."""
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    engine = DasEngine(_config_from_dict(payload["config"]))

    # Collection statistics are restored wholesale (re-adding documents
    # would double-count documents that were evicted from the store but
    # already folded into the statistics).
    stats = engine.stats
    stats._term_counts = {
        term: int(count)
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


def _restore_query(engine: DasEngine, query: DasQuery, rows: List[Dict]) -> None:
    """Register a query and rebuild its result table row by row."""
    from repro.core.result_set import QueryResultSet

    result_set = QueryResultSet(
        engine.config.k,
        budget=engine._budget,
        track_aggregated_weights=engine.config.use_agg_weights,
    )
    entries = result_set._entries
    for row in rows:
        document = engine.store.get(int(row["doc"]))
        if document is None:
            raise ValueError(
                f"checkpoint references missing document {row['doc']}"
            )
        entries.append(ResultEntry(document, float(row["trel"])))
        engine.store.pin(document.doc_id)
    engine._queries[query.query_id] = query
    engine._result_sets[query.query_id] = result_set
    engine._last_query_id = query.query_id
    touched = engine._index.insert(query)
    engine._memberships[query.query_id] = touched
    engine.counters.queries_subscribed += 1
    if not result_set.is_full:
        # A warm-up table is its rows: whatever ``sim_acc`` / ``in_r1`` an
        # older file carries for them is recomputed when the table fills.
        return
    # Rebuild the aggregated weight table over R1 \ {oldest} and account
    # for its budget.
    budget = engine._budget
    entries[0].in_r1 = bool(rows[0]["in_r1"])
    if result_set._track_aw:
        aw = result_set._aw = AggregatedTermWeights()
        for entry, row in zip(entries[1:], rows[1:]):
            size = len(entry.document.vector)
            if row["in_r1"] and (budget is None or budget.try_reserve(size)):
                aw.add_document(entry.document.vector)
                entry.in_r1 = entry.aw_resident = True
    result_set._r2_count = sum(not e.aw_resident for e in entries[1:])
    # Eq. 24 continuity: the oldest row's value is complete in every
    # file; a non-oldest row holds only its similarities to newer
    # non-summarised documents (promotion adds the summarised rest), and
    # files written before promotion-time completion carry full totals
    # there — so re-derive those slots instead of trusting the file.
    entries[0].sim_acc = float(rows[0]["sim_acc"])
    for newer in range(2, len(entries)):
        if entries[newer].aw_resident:
            continue
        vector = entries[newer].document.vector
        for entry in entries[1:newer]:
            entry.sim_acc += cosine_similarity(vector, entry.document.vector)


def checkpoint_sharded(engine: ShardedDasEngine) -> Dict:
    """Capture a sharded engine: per-shard checkpoints plus routing state.

    The routing table and round-robin cursor are part of the logical
    state — without them a restored engine would route new queries
    differently from the original.
    """
    return {
        "version": CHECKPOINT_VERSION,
        "sharded": True,
        "routing": engine.routing,
        "assignment": {
            str(query_id): shard
            for query_id, shard in sorted(engine._assignment.items())
        },
        "next_round_robin": engine._next_round_robin,
        "shards": [checkpoint(shard) for shard in engine.shards],
    }


def restore_sharded(payload: Dict) -> ShardedDasEngine:
    """Rebuild a sharded engine from a :func:`checkpoint_sharded` dict."""
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    restored = [restore(shard) for shard in payload["shards"]]
    shards = iter(restored)
    engine = ShardedDasEngine(
        len(restored),
        routing=payload["routing"],
        engine_factory=lambda: next(shards),
    )
    engine._assignment = {
        int(query_id): int(shard)
        for query_id, shard in payload["assignment"].items()
    }
    engine._next_round_robin = int(payload["next_round_robin"])
    return engine


def engine_checkpoint(engine: object) -> Dict:
    """Checkpoint any engine shape to its JSON-safe payload.

    Dispatches on shape: sharded engines produce the
    ``checkpoint_sharded`` schema, engines with their own ``checkpoint``
    hook (ParallelShardedEngine, duck-typed to avoid importing the
    multiprocessing stack here; the cluster coordinator) fan the call
    out themselves and return the same schema, and a plain
    :class:`DasEngine` produces the single-engine payload.  The cluster
    tier's ``cluster_stats`` checkpoint fetch and :func:`save` share
    this dispatch so every deployment writes interchangeable files.
    """
    if isinstance(engine, ShardedDasEngine):
        return checkpoint_sharded(engine)
    if not isinstance(engine, DasEngine) and hasattr(engine, "checkpoint"):
        return engine.checkpoint()
    return checkpoint(engine)


def restore_payload(payload: Dict) -> Union[DasEngine, ShardedDasEngine]:
    """Restore an in-process engine from any checkpoint payload shape."""
    if payload.get("sharded"):
        return restore_sharded(payload)
    return restore(payload)


def save(
    engine: Union[DasEngine, ShardedDasEngine],
    path: str,
    injector: Optional[object] = None,
) -> None:
    """Checkpoint the engine to a JSON file, atomically.

    The payload is written to a sibling temp file and moved into place
    with ``os.replace``, so a crash mid-write (simulated through the
    ``checkpoint.write`` injection point of ``injector``) leaves any
    previous checkpoint at ``path`` intact.  A ``torn`` fault leaves a
    truncated temp file behind — never a truncated checkpoint.
    """
    payload = engine_checkpoint(engine)
    data = json.dumps(payload)
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
    os.replace(tmp_path, path)


def load(
    path: str, parallel: bool = False
) -> Union[DasEngine, ShardedDasEngine]:
    """Restore an engine from a JSON checkpoint file.

    With ``parallel=True`` a sharded checkpoint comes back as a
    :class:`repro.parallel.ParallelShardedEngine` — one worker process
    per shard entry, each restored from its shard payload (sharded and
    parallel checkpoints share one schema, so either deployment can
    resume the other's file).
    """
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("sharded"):
        if parallel:
            from repro.parallel import ParallelShardedEngine

            return ParallelShardedEngine.from_checkpoint(payload)
        return restore_sharded(payload)
    return restore(payload)
