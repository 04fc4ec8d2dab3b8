"""Differential suite: the engine against its brute-force oracles.

Drives the same seeded workload, in every ranking/expiry mode, through
:class:`~repro.core.engine.DasEngine` and the mode's oracle
(:class:`~repro.baselines.naive.NaiveEngine` for the paper's decay
mode, the strategy oracles for the others) and asserts identical
notifications and result lists (and DR values, against the strategy
oracles); a checkpoint taken mid-stream continues identically too.
"""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.core.engine import DasEngine
from repro.core.query import DasQuery
from repro.core.strategies import make_oracle
from repro.persistence.checkpoint import checkpoint, restore
from repro.stream.document import Document
from repro.text.vectors import TermVector
from repro.workloads.corpus import SyntheticTweetCorpus
from repro.workloads.queries import lqd_queries
from repro.workloads.storms import churn_storm, flash_crowd

BATCH = 12


def _mode_config(mode):
    """Small window / coarse grid so expiries and cell skips actually
    fire inside a 96-document workload."""
    return EngineConfig(
        k=4,
        block_size=8,
        mode=mode,
        window_size=12,
        spatial_cells=3,
    )


def _mode_workload(mode, seed=52):
    corpus = SyntheticTweetCorpus(
        vocab_size=220, n_topics=8, doc_length=(4, 10), seed=seed
    )
    docs = corpus.documents(96, with_locations=(mode == "spatial"))
    rng = corpus.fresh_rng(salt=9)
    queries = []
    for query in lqd_queries(corpus, 12, first_id=0):
        location = (
            (rng.random(), rng.random()) if mode == "spatial" else None
        )
        window = rng.choice([None, 4, 8]) if mode == "window" else None
        queries.append(
            DasQuery(
                query.query_id, query.terms, location=location, window=window
            )
        )
    return docs, queries


def _mode_note_key(notification):
    """Sentinel ``-1`` (not None) for unreplaced: a window batch can
    notify the same (query, document) pair twice — admitted, displaced,
    then re-promoted — and mixed None/int keys do not sort."""
    return (
        notification.query_id,
        notification.document.doc_id,
        notification.replaced.doc_id
        if notification.replaced is not None
        else -1,
    )


def _mode_trace(engine, docs, queries):
    """The decisions: initial results, per-batch notification multisets
    (the order inside a batch is a schedule detail, the set of decisions
    is not) and final result lists.  Subscribes the query objects verbatim so per-query
    window/location options survive; an oracle without
    ``publish_batch`` publishes one by one."""
    trace = []
    for query in queries:
        initial = engine.subscribe(query)
        trace.append(("initial", query.query_id, [d.doc_id for d in initial]))
    for start in range(0, len(docs), BATCH):
        batch = docs[start : start + BATCH]
        if hasattr(engine, "publish_batch"):
            notes = engine.publish_batch(batch)
        else:
            notes = [n for document in batch for n in engine.publish(document)]
        trace.append(("notes", start, sorted(_mode_note_key(n) for n in notes)))
    for query in queries:
        trace.append(
            (
                "final",
                query.query_id,
                [d.doc_id for d in engine.results(query.query_id)],
            )
        )
    return trace


@pytest.mark.parametrize("mode", ["decay", "window", "spatial"])
def test_mode_shape_matrix(mode):
    """In every ranking/expiry mode the engine, publishing in batches,
    makes the decisions of the mode's oracle publishing one by one.  (DR
    values are not compared: the decay oracle keeps each row's TRel as
    admitted, the engine rescores under today's statistics.)"""
    docs, queries = _mode_workload(mode)
    config = _mode_config(mode)
    assert _mode_trace(DasEngine(config), docs, queries) == _mode_trace(
        make_oracle(config), docs, queries
    )


@pytest.mark.parametrize("mode", ["decay", "window", "spatial"])
def test_mode_checkpoint_restore_row(mode):
    """Checkpoint/restore mid-stream continues byte-identically in every
    mode — strategy state (windows, grids, score caches) round-trips."""
    docs, queries = _mode_workload(mode, seed=53)
    config = _mode_config(mode)
    engine = DasEngine(config)
    for query in queries:
        engine.subscribe(query)
    engine.publish_batch(docs[:48])
    restored = restore(checkpoint(engine))
    for start in range(48, len(docs), BATCH):
        batch = docs[start : start + BATCH]
        assert sorted(
            _mode_note_key(n) for n in restored.publish_batch(batch)
        ) == sorted(_mode_note_key(n) for n in engine.publish_batch(batch))
    for query in queries:
        assert [
            d.doc_id for d in restored.results(query.query_id)
        ] == [d.doc_id for d in engine.results(query.query_id)]
        assert restored.current_dr(query.query_id) == engine.current_dr(
            query.query_id
        )


def _replay_storm(target, ops, mode):
    """Drive storm op-dicts through an engine or oracle, logging every
    observable (notification keys, result ids, dr values)."""
    log = []
    qid = 0
    live = []
    for index, op in enumerate(ops):
        kind = op["op"]
        if kind == "subscribe":
            qid += 1
            location = op.get("location")
            query = DasQuery(
                qid,
                op["keywords"],
                location=tuple(location) if location is not None else None,
                window=op.get("window"),
            )
            initial = target.subscribe(query)
            live.append(qid)
            log.append(("sub", qid, [d.doc_id for d in initial]))
        elif kind == "unsubscribe":
            victim = live.pop(op["index"])
            target.unsubscribe(victim)
            log.append(("unsub", victim))
        else:
            location = op.get("location")
            document = Document(
                5000 + index,
                TermVector.from_tokens(op["tokens"]),
                float(index),
                location=tuple(location) if location is not None else None,
            )
            notes = target.publish(document)
            log.append(sorted(_mode_note_key(n) for n in notes))
    for query_id in live:
        log.append(
            (
                query_id,
                [d.doc_id for d in target.results(query_id)],
                target.current_dr(query_id),
            )
        )
    return log


@pytest.mark.parametrize("mode", ["window", "spatial"])
def test_storm_workloads_match_brute_force_oracle(mode):
    """Flash-crowd and churn-storm streams replay byte-identically on
    the incremental engine and the mode's brute-force oracle."""
    corpus = SyntheticTweetCorpus(
        vocab_size=220, n_topics=8, doc_length=(4, 10), seed=54
    )
    config = _mode_config(mode)
    seeds = [
        {"op": "subscribe", "keywords": [term]}
        for term in corpus.trending_terms(per_topic=1)[:6]
    ]
    if mode == "spatial":
        rng = corpus.fresh_rng(salt=77)
        for op in seeds:
            op["location"] = [rng.random(), rng.random()]
    for storm in (
        seeds + flash_crowd(corpus, mode=mode),
        churn_storm(corpus, mode=mode),
    ):
        engine_log = _replay_storm(DasEngine(config), storm, mode)
        oracle_log = _replay_storm(make_oracle(config), storm, mode)
        assert engine_log == oracle_log
