"""Tests for the synthetic corpus and query generators."""

from __future__ import annotations

import pytest

from repro.workloads.corpus import SyntheticTweetCorpus, zipf_weights
from repro.workloads.queries import lqd_queries, sqd_queries


def test_zipf_weights_decreasing():
    weights = zipf_weights(5, 1.0)
    assert weights == sorted(weights, reverse=True)
    assert weights[0] == 1.0
    assert weights[4] == pytest.approx(0.2)


def test_corpus_vocab_partitioned():
    corpus = SyntheticTweetCorpus(vocab_size=100, n_topics=4, seed=1)
    assert len(corpus.vocabulary) == 100
    assert len(set(corpus.vocabulary)) == 100
    assert sum(len(t) for t in corpus.topic_terms) == 100


def test_corpus_validation():
    with pytest.raises(ValueError):
        SyntheticTweetCorpus(vocab_size=3, n_topics=10)
    with pytest.raises(ValueError):
        SyntheticTweetCorpus(doc_length=(5, 3))
    with pytest.raises(ValueError):
        SyntheticTweetCorpus(noise_ratio=1.5)


def test_corpus_documents_have_stream_discipline():
    corpus = SyntheticTweetCorpus(vocab_size=100, n_topics=4, seed=1)
    docs = corpus.documents(20, start_time=10.0, interval=0.5, first_id=100)
    assert [d.doc_id for d in docs] == list(range(100, 120))
    assert docs[0].created_at == 10.0
    assert docs[1].created_at == 10.5
    for d in docs:
        lo, hi = corpus.doc_length
        assert lo <= d.vector.length <= hi
        assert d.text is not None


def test_corpus_deterministic_given_seed():
    a = SyntheticTweetCorpus(vocab_size=100, n_topics=4, seed=7).documents(10)
    b = SyntheticTweetCorpus(vocab_size=100, n_topics=4, seed=7).documents(10)
    assert [d.text for d in a] == [d.text for d in b]


def test_trending_terms():
    corpus = SyntheticTweetCorpus(vocab_size=100, n_topics=4, seed=1)
    trending = corpus.trending_terms(per_topic=2)
    assert len(trending) == 8
    assert len(set(trending)) == 8


def test_lqd_queries_shape():
    corpus = SyntheticTweetCorpus(vocab_size=200, n_topics=5, seed=2)
    queries = lqd_queries(corpus, 40, min_terms=1, max_terms=4, first_id=5)
    assert len(queries) == 40
    assert [q.query_id for q in queries] == list(range(5, 45))
    for q in queries:
        assert 1 <= len(q.terms) <= 4
        for term in q.terms:
            assert term in corpus.vocabulary


def test_lqd_queries_deterministic():
    corpus = SyntheticTweetCorpus(vocab_size=200, n_topics=5, seed=2)
    a = lqd_queries(corpus, 10)
    corpus2 = SyntheticTweetCorpus(vocab_size=200, n_topics=5, seed=2)
    b = lqd_queries(corpus2, 10)
    assert [q.terms for q in a] == [q.terms for q in b]


def test_sqd_queries_use_trending_terms():
    trending = ["alpha", "beta", "gamma", "delta"]
    queries = sqd_queries(trending, 20, max_terms=3)
    for q in queries:
        assert set(q.terms) <= set(trending)


def test_query_generation_validation():
    corpus = SyntheticTweetCorpus(vocab_size=100, n_topics=4, seed=2)
    with pytest.raises(ValueError):
        lqd_queries(corpus, -1)
    with pytest.raises(ValueError):
        lqd_queries(corpus, 5, min_terms=0)
    with pytest.raises(ValueError):
        lqd_queries(corpus, 5, min_terms=3, max_terms=2)
    with pytest.raises(ValueError):
        sqd_queries([], 5)
