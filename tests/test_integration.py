"""End-to-end integration tests across the whole system."""

from __future__ import annotations

import pytest

from repro import (
    DasEngine,
    DasQuery,
    Document,
    SyntheticTweetCorpus,
)
from repro.scoring.diversity import dr_score
from repro.workloads import lqd_queries


def test_full_pipeline_with_interleaved_arrivals():
    """Corpus -> arrivals -> engine -> notifications -> results.

    Two documents arrive per second and one query every two seconds, so
    query ``j`` subscribes right after document ``4j`` is published.
    """
    corpus = SyntheticTweetCorpus(vocab_size=300, n_topics=10, seed=42)
    docs = corpus.documents(200, interval=0.5)
    queries = lqd_queries(corpus, 30, first_id=0)
    engine = DasEngine.for_method("GIFilter", k=5, block_size=8)
    notifications = 0
    for index, document in enumerate(docs):
        notifications += len(engine.publish(document))
        if index % 4 == 0 and index // 4 < len(queries):
            engine.subscribe(queries[index // 4])
    assert engine.query_count == 30
    assert notifications > 0
    # every result is well-formed: matches the query, unique, sorted
    for query in queries:
        results = engine.results(query.query_id)
        assert len(results) <= 5
        ids = [d.doc_id for d in results]
        assert len(set(ids)) == len(ids)
        assert ids == sorted(ids, reverse=True)
        for document in results:
            assert query.matches(document.vector.terms())


def test_replacements_never_decrease_dr():
    """Every accepted replacement strictly improves DR (Definition 2).

    Uses the engine's notifications to re-check each accepted swap with
    the reference scorer at the moment of the swap.
    """
    corpus = SyntheticTweetCorpus(vocab_size=200, n_topics=8, seed=77)
    docs = corpus.documents(150)
    queries = lqd_queries(corpus, 10, first_id=0, max_terms=2)
    engine = DasEngine.for_method("GIFilter", k=4, block_size=4)
    for document in docs[:60]:
        engine.publish(document)
    for query in queries:
        engine.subscribe(query)
    terms = {q.query_id: q.terms for q in queries}
    for document in docs[60:]:
        before = {
            q.query_id: engine.current_dr(q.query_id)
            for q in queries
            if len(engine.results(q.query_id)) == 4
        }
        notes = engine.publish(document)
        for note in notes:
            if note.is_replacement and note.query_id in before:
                after = dr_score(
                    terms[note.query_id],
                    list(reversed(engine.results(note.query_id))),
                    engine.scorer,
                    engine.decay,
                    engine.clock.now,
                    engine.config.alpha,
                    engine.config.k,
                )
                # after > before up to TRel-caching differences; allow a
                # small slack because current_dr recomputes TRel against
                # the evolving collection statistics.
                assert after > before[note.query_id] - 0.05


def test_unsubscribe_mid_stream_keeps_engine_consistent():
    corpus = SyntheticTweetCorpus(vocab_size=150, n_topics=6, seed=5)
    docs = corpus.documents(120)
    queries = lqd_queries(corpus, 12, first_id=0)
    engine = DasEngine.for_method("GIFilter", k=3, block_size=4)
    for document in docs[:40]:
        engine.publish(document)
    for query in queries:
        engine.subscribe(query)
    for document in docs[40:80]:
        engine.publish(document)
    for query in queries[::2]:
        engine.unsubscribe(query.query_id)
    for document in docs[80:]:
        engine.publish(document)
    assert engine.query_count == 6
    for query in queries[1::2]:
        assert engine.results(query.query_id) is not None


def test_store_capacity_with_live_results():
    """A bounded store never loses documents still referenced by results."""
    engine = DasEngine.for_method("GIFilter", k=3, store_capacity=10)
    engine.subscribe(DasQuery(0, ["pin"]))
    for i in range(50):
        tokens = ["pin"] if i % 5 == 0 else ["chaff", f"c{i}"]
        engine.publish(Document.from_tokens(i, tokens, float(i)))
    assert len(engine.store) <= 10 + 3  # capacity + pinned results
    for document in engine.results(0):
        assert engine.store.get(document.doc_id) is not None


def test_two_engines_share_nothing():
    a = DasEngine.for_method("GIFilter", k=2)
    b = DasEngine.for_method("GIFilter", k=2)
    a.subscribe(DasQuery(0, ["x"]))
    a.publish(Document.from_tokens(0, ["x"], 0.0))
    assert b.query_count == 0
    assert len(b.store) == 0
