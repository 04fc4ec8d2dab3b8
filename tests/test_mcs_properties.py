"""Hypothesis property tests for GreedyMcsGen and the Eq. 19 bound
(ISSUE 3, S4).

Definition 5 (checked on arbitrary random universes):

1. *covering* — every emitted set covers every query of the block;
2. *minimal* — removing any single member breaks property (1);
3. the emitted sets are pairwise disjoint and drawn from the universe.

Eq. 19 soundness (checked on blocks built from real result sets):
``Sim̃_min`` never exceeds the exact minimum similarity mass.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import PostingsBlock
from repro.core.mcs import (
    BlockUniverse,
    CoverSet,
    build_universe,
    greedy_mcs_gen,
    verify_cover,
)
from repro.core.result_set import QueryResultSet
from repro.core.filtering import block_similarity_lower_bound
from repro.scoring.relevance import LanguageModelScorer
from repro.stream.document import Document
from repro.text.collection_stats import CollectionStatistics
from repro.text.vectors import TermVector, cosine_similarity
from tests.conftest import table_rows

K = 3
ALPHABET = ["w", "a", "b", "c"]


@st.composite
def random_universe(draw):
    """An arbitrary coverage structure: docs -> subsets of queries."""
    n_queries = draw(st.integers(min_value=1, max_value=6))
    query_ids = list(range(n_queries))
    n_docs = draw(st.integers(min_value=1, max_value=10))
    universe = BlockUniverse("w")
    for doc_id in range(n_docs):
        holders = draw(
            st.sets(st.sampled_from(query_ids), min_size=1, max_size=n_queries)
        )
        tf = draw(st.integers(min_value=1, max_value=3))
        universe.documents[doc_id] = Document(
            doc_id, TermVector({"w": tf}), float(doc_id)
        )
        universe.coverage[doc_id] = holders
    return universe, query_ids


@settings(max_examples=150, deadline=None)
@given(random_universe())
def test_emitted_covers_satisfy_definition_5(case):
    universe, query_ids = case
    covers = greedy_mcs_gen(query_ids, universe)
    all_queries = set(query_ids)
    seen_ids = set()
    for cover in covers:
        # (1) every block query holds at least one member.
        assert verify_cover(cover, universe.coverage, all_queries)
        # (2) minimal: dropping any member breaks the cover.
        if len(cover) > 1:
            for member in cover:
                reduced = [d for d in cover if d.doc_id != member.doc_id]
                assert not verify_cover(
                    CoverSet(reduced), universe.coverage, all_queries
                )
        # disjoint, and drawn from the universe.
        assert not (cover.doc_ids & seen_ids)
        assert cover.doc_ids <= set(universe.documents)
        seen_ids |= cover.doc_ids


@settings(max_examples=150, deadline=None)
@given(random_universe())
def test_greedy_emits_nothing_when_some_query_is_uncoverable(case):
    universe, query_ids = case
    # Add a query no universe document covers: no complete cover can
    # exist, so the greedy pass must emit zero covers (an incomplete
    # "MCS" would make Eq. 19 unsafe).
    uncoverable = max(query_ids) + 1
    covers = greedy_mcs_gen(query_ids + [uncoverable], universe)
    assert covers == []


def fill_result_set(terms, pool, scorer):
    rs = QueryResultSet(K, track_aggregated_weights=False, alpha=0.5)
    for document in pool:
        if rs.is_full:
            break
        rs.admit(document, scorer.trel(terms, document.vector))
    return rs


doc_tokens = st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=5)


@st.composite
def block_case(draw):
    n_queries = draw(st.integers(min_value=1, max_value=4))
    pool_tokens = draw(st.lists(doc_tokens, min_size=K + 2, max_size=K + 6))
    pool = [
        Document.from_tokens(i, tokens + ["w"], float(i))
        for i, tokens in enumerate(pool_tokens)
    ]
    queries = []
    for qid in range(n_queries):
        extra = draw(
            st.lists(st.sampled_from(ALPHABET[1:]), min_size=0, max_size=2)
        )
        queries.append((qid, tuple(sorted(set(["w"] + extra)))))
    new_tokens = draw(doc_tokens)
    new_doc = Document.from_tokens(200, new_tokens + ["w"], float(len(pool)))
    return pool, queries, new_doc


@settings(max_examples=100, deadline=None)
@given(block_case())
def test_build_universe_excludes_the_oldest_entries(case):
    pool, queries, _new_doc = case
    stats = CollectionStatistics()
    for document in pool:
        stats.add(document.vector)
    scorer = LanguageModelScorer(stats, 0.5)
    result_sets = {
        qid: fill_result_set(terms, pool, scorer) for qid, terms in queries
    }
    universe = build_universe("w", [q for q, _t in queries], result_sets)
    eligible = set()
    for qid, _terms in queries:
        for entry in table_rows(result_sets[qid])[1:]:
            eligible.add(entry.document.doc_id)
    assert set(universe.documents) == eligible
    for doc_id, holders in universe.coverage.items():
        for qid in holders:
            assert doc_id in {
                e.document.doc_id for e in table_rows(result_sets[qid])[1:]
            }


@settings(max_examples=100, deadline=None)
@given(block_case())
def test_eq19_bound_is_sound(case):
    pool, queries, new_doc = case
    stats = CollectionStatistics()
    for document in pool + [new_doc]:
        stats.add(document.vector)
    scorer = LanguageModelScorer(stats, 0.5)
    result_sets = {}
    block = PostingsBlock()
    for qid, terms in queries:
        result_sets[qid] = fill_result_set(terms, pool, scorer)
        block.append(qid)
    block.refresh_metadata(result_sets)
    block.rebuild_mcs("w", result_sets)
    if block.has_unfilled:
        return
    sim_lower = block_similarity_lower_bound(block, new_doc.vector)
    exact_min = min(
        sum(
            cosine_similarity(new_doc.vector, entry.document.vector)
            for entry in table_rows(result_sets[qid])[1:]
        )
        for qid in block.query_ids
    )
    # Soundness: a group skip can never drop a true delivery.
    assert sim_lower <= exact_min + 1e-9
