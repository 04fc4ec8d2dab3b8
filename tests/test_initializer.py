"""Tests for result-set initialisation strategies."""

from __future__ import annotations

import pytest

from repro.core.initializer import select_initial_documents
from repro.scoring.recency import ExponentialDecay
from repro.scoring.relevance import LanguageModelScorer
from repro.stream.document import Document
from repro.stream.document_store import DocumentStore
from repro.text.collection_stats import CollectionStatistics


def build_store(token_lists):
    store = DocumentStore()
    stats = CollectionStatistics()
    for i, tokens in enumerate(token_lists):
        document = Document.from_tokens(i, tokens, float(i))
        store.add(document)
        stats.add(document.vector)
    scorer = LanguageModelScorer(stats, 0.5)
    return store, scorer, ExponentialDecay(1.01)


def test_recent_strategy_returns_latest_matches_ascending():
    store, scorer, decay = build_store(
        [["x"], ["y"], ["x"], ["x"], ["z"]]
    )
    seeds = select_initial_documents(
        store, ["x"], k=2, scan_limit=10, strategy="recent"
    )
    # recent_matching is newest-first; take k then sort ascending.
    assert [d.doc_id for d in seeds] == [2, 3]


def test_relevant_strategy_prefers_high_tf():
    store, scorer, decay = build_store(
        [["x", "x", "x"], ["x", "pad", "pad", "pad", "pad"], ["x", "x", "pad"]]
    )
    seeds = select_initial_documents(
        store,
        ["x"],
        k=2,
        scan_limit=10,
        strategy="relevant",
        scorer=scorer,
        decay=decay,
        now=3.0,
    )
    ids = {d.doc_id for d in seeds}
    assert ids == {0, 2}  # the two high-tf documents
    assert [d.doc_id for d in seeds] == sorted(ids)


def test_greedy_strategy_diversifies():
    store, scorer, decay = build_store(
        [["x", "dup"], ["x", "dup"], ["x", "other"]]
    )
    seeds = select_initial_documents(
        store,
        ["x"],
        k=2,
        scan_limit=10,
        strategy="greedy",
        scorer=scorer,
        decay=decay,
        now=3.0,
        alpha=0.1,
    )
    tokens = {t for d in seeds for t in d.vector.terms()}
    assert "other" in tokens  # picked for diversity


def test_empty_store_returns_nothing():
    store, scorer, decay = build_store([])
    assert select_initial_documents(store, ["x"], 3, 10) == []


def test_no_matches_returns_nothing():
    store, scorer, decay = build_store([["a"], ["b"]])
    assert select_initial_documents(store, ["zz"], 3, 10) == []


def test_fewer_matches_than_k():
    store, scorer, decay = build_store([["x"], ["y"]])
    seeds = select_initial_documents(store, ["x"], k=5, scan_limit=10)
    assert [d.doc_id for d in seeds] == [0]


def test_unknown_strategy_rejected():
    store, scorer, decay = build_store([["x"]])
    with pytest.raises(ValueError):
        select_initial_documents(store, ["x"], 1, 10, strategy="best")


def test_relevant_requires_scorer():
    store, scorer, decay = build_store([["x"], ["x"], ["x"], ["x"]])
    with pytest.raises(ValueError):
        select_initial_documents(store, ["x"], 2, 10, strategy="relevant")


def test_greedy_requires_scorer():
    store, scorer, decay = build_store([["x"], ["x"], ["x"], ["x"]])
    with pytest.raises(ValueError):
        select_initial_documents(store, ["x"], 2, 10, strategy="greedy")


def test_scan_limit_bounds_candidates():
    store, scorer, decay = build_store([["x"] for _ in range(10)])
    seeds = select_initial_documents(
        store, ["x"], k=10, scan_limit=3, strategy="recent"
    )
    assert len(seeds) == 3
    assert [d.doc_id for d in seeds] == [7, 8, 9]


def _reference_relevant(store, terms, k, scan_limit, scorer, decay, now):
    """The ranking the one-pass form must reproduce, scored per document."""
    ranked = sorted(
        store.recent_matching(terms, scan_limit),
        key=lambda d: scorer.trel(terms, d.vector) * decay.at(d.created_at, now),
        reverse=True,
    )[:k]
    return sorted(ranked, key=lambda d: d.doc_id)


@pytest.mark.parametrize(
    "token_lists",
    [
        # Ties: four identical documents compete for two places.
        [["x", "a"], ["x", "a"], ["x", "a"], ["x", "a"], ["y"]],
        # More than k candidates with distinct scores, two keywords.
        [["x"], ["x", "y"], ["y", "y", "pad"], ["x", "pad", "pad"],
         ["x", "x", "y"], ["pad"], ["y"]],
    ],
)
def test_relevant_ranking_is_the_per_document_sort(token_lists):
    store, scorer, _ = build_store(token_lists)
    for decay in (ExponentialDecay(1.0), ExponentialDecay(1.3)):
        now = float(len(token_lists))
        seeds, trels = select_initial_documents(
            store, ("x", "y"), 2, 10, strategy="relevant",
            scorer=scorer, decay=decay, now=now, with_trels=True,
        )
        expected = _reference_relevant(
            store, ("x", "y"), 2, 10, scorer, decay, now
        )
        assert [d.doc_id for d in seeds] == [d.doc_id for d in expected]
        # The TRel handed back is the one ranked by, bit for bit.
        assert trels == [scorer.trel(("x", "y"), d.vector) for d in seeds]
        assert seeds == select_initial_documents(
            store, ("x", "y"), 2, 10, strategy="relevant",
            scorer=scorer, decay=decay, now=now,
        )


def test_unscored_seeds_come_back_without_trel():
    store, scorer, decay = build_store([["x"], ["x"], ["y"]])
    for strategy, k in (("recent", 1), ("relevant", 5)):
        seeds, trels = select_initial_documents(
            store, ["x"], k, 10, strategy=strategy,
            scorer=scorer, decay=decay, now=3.0, with_trels=True,
        )
        assert trels == [None] * len(seeds)
    assert select_initial_documents(
        store, ["zz"], 2, 10, with_trels=True
    ) == ([], [])
