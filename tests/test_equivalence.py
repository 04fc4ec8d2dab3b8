"""Cross-engine equivalence: the paper's methods produce identical results.

Section 8.4.1: "IRT, BIRT, IFilter, and GIFilter are all developed for
processing DAS queries, and they produce the same result."  This holds
*exactly* — including against the naive O(k²)-per-query oracle — for
any stream, any subscription schedule and any parameter setting.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveEngine
from repro.config import EngineConfig
from repro.core.engine import DasEngine
from repro.core.query import DasQuery
from repro.stream.document import Document
from repro.workloads.corpus import SyntheticTweetCorpus
from repro.workloads.queries import lqd_queries

METHODS = ("GIFilter", "IFilter", "BIRT", "IRT")


def run_stream(engines, docs, queries, interleave_at):
    """Publish docs and subscribe queries in a fixed interleaving."""
    doc_iter = iter(docs)
    published = 0
    for count, query_batch in interleave_at:
        while published < count:
            document = next(doc_iter)
            for engine in engines.values():
                engine.publish(document)
            published += 1
        for query in query_batch:
            for engine in engines.values():
                engine.subscribe(query)
    for document in doc_iter:
        for engine in engines.values():
            engine.publish(document)
        published += 1


def result_ids(engine, queries):
    return {
        q.query_id: [d.doc_id for d in engine.results(q.query_id)]
        for q in queries
    }


def build_engines(k, block_size, alpha=0.3):
    engines = {
        method: DasEngine.for_method(
            method, k=k, block_size=block_size, alpha=alpha
        )
        for method in METHODS
    }
    naive_config = EngineConfig(
        k=k, alpha=alpha,
        use_blocks=False, use_group_filter=False, use_agg_weights=False,
    )
    engines["Naive"] = NaiveEngine(naive_config)
    return engines


def test_engines_agree_on_corpus_stream():
    corpus = SyntheticTweetCorpus(vocab_size=250, n_topics=8, seed=5)
    docs = corpus.documents(250)
    queries = lqd_queries(corpus, 25, first_id=0)
    engines = build_engines(k=4, block_size=4)
    run_stream(
        engines,
        docs,
        queries,
        interleave_at=[(40, queries[:10]), (120, queries[10:])],
    )
    reference = result_ids(engines["Naive"], queries)
    for method in METHODS:
        assert result_ids(engines[method], queries) == reference, method


def test_engines_agree_with_small_blocks_and_tiny_k():
    corpus = SyntheticTweetCorpus(vocab_size=60, n_topics=4, seed=9)
    docs = corpus.documents(150)
    queries = lqd_queries(corpus, 30, first_id=0, max_terms=2)
    engines = build_engines(k=1, block_size=2)
    run_stream(engines, docs, queries, interleave_at=[(10, queries)])
    reference = result_ids(engines["Naive"], queries)
    for method in METHODS:
        assert result_ids(engines[method], queries) == reference, method


def test_engines_agree_alpha_extremes():
    corpus = SyntheticTweetCorpus(vocab_size=120, n_topics=6, seed=13)
    docs = corpus.documents(120)
    queries = lqd_queries(corpus, 15, first_id=0)
    for alpha in (0.0, 1.0):
        engines = build_engines(k=3, block_size=3, alpha=alpha)
        run_stream(engines, docs, queries, interleave_at=[(30, queries)])
        reference = result_ids(engines["Naive"], queries)
        for method in METHODS:
            assert result_ids(engines[method], queries) == reference, (
                method,
                alpha,
            )


tokens_strategy = st.lists(st.sampled_from("pqrst"), min_size=1, max_size=4)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(tokens_strategy, min_size=5, max_size=30),
    st.lists(
        st.sets(st.sampled_from("pqrst"), min_size=1, max_size=2),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=0, max_value=5),
)
def test_equivalence_property(doc_tokens, query_terms, subscribe_after):
    """Random tiny streams: all engines equal the oracle exactly."""
    docs = [
        Document.from_tokens(i, tokens, float(i))
        for i, tokens in enumerate(doc_tokens)
    ]
    queries = [
        DasQuery(qid, sorted(terms)) for qid, terms in enumerate(query_terms)
    ]
    engines = build_engines(k=2, block_size=2)
    split = min(subscribe_after, len(docs))
    run_stream(engines, docs, queries, interleave_at=[(split, queries)])
    reference = result_ids(engines["Naive"], queries)
    for method in METHODS:
        assert result_ids(engines[method], queries) == reference, method


def test_equivalence_under_tight_aw_budget():
    """A tiny Φ_max forces most results into R2 (per-document similarity
    path); decisions must still match the oracle exactly."""
    corpus = SyntheticTweetCorpus(vocab_size=150, n_topics=6, seed=17)
    docs = corpus.documents(150)
    queries = lqd_queries(corpus, 20, first_id=0)
    engines = {
        "tight": DasEngine.for_method("GIFilter", k=3, block_size=4, phi_max=10),
        "zero": DasEngine.for_method("IFilter", k=3, block_size=4, phi_max=0),
    }
    naive_config = EngineConfig(
        k=3, use_blocks=False, use_group_filter=False, use_agg_weights=False
    )
    engines["Naive"] = NaiveEngine(naive_config)
    run_stream(engines, docs, queries, interleave_at=[(40, queries)])
    reference = result_ids(engines["Naive"], queries)
    assert result_ids(engines["tight"], queries) == reference
    assert result_ids(engines["zero"], queries) == reference


def test_equivalence_with_unsubscribes():
    """Unsubscribing mid-stream must not perturb the remaining queries."""
    corpus = SyntheticTweetCorpus(vocab_size=150, n_topics=6, seed=19)
    docs = corpus.documents(150)
    queries = lqd_queries(corpus, 20, first_id=0)
    engines = build_engines(k=3, block_size=3)
    run_stream(engines, docs[:80], queries, interleave_at=[(20, queries)])
    for query in queries[::3]:
        for engine in engines.values():
            engine.unsubscribe(query.query_id)
    kept = [q for i, q in enumerate(queries) if i % 3]
    for document in docs[80:]:
        for engine in engines.values():
            engine.publish(document)
    reference = result_ids(engines["Naive"], kept)
    for method in METHODS:
        assert result_ids(engines[method], kept) == reference, method
