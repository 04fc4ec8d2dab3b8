"""Property tests for the filtering bounds (Lemmas 2, 3, 4, 7).

Random block scenarios are generated — queries sharing a term ``w``,
result sets filled from a shared document pool — and each bound is
checked against its exact counterpart:

* ``FT̃_b`` never exceeds the true minimum filtering threshold (Lemma 2);
* ``TRel̃_max`` never underestimates the best query relevance (Lemma 4);
* ``Sim̃_min`` never overestimates the true minimum similarity mass —
  so a group skip can never drop a document that some member query
  would have accepted (Lemma 7 safety).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import PostingsBlock
from repro.core.filtering import (
    TIE_EPSILON,
    accepts,
    block_similarity_lower_bound,
    block_threshold_lower_bound,
    block_trel_upper_bound,
    exact_group_threshold,
    group_filters_out,
    quick_relevance_bound,
)
from repro.core.result_set import QueryResultSet
from repro.scoring.diversity import diversity_coefficient
from repro.scoring.recency import ExponentialDecay
from repro.scoring.relevance import LanguageModelScorer
from repro.stream.document import Document
from repro.text.collection_stats import CollectionStatistics
from repro.text.vectors import cosine_similarity
from tests.conftest import table_rows

ALPHABET = ["w", "a", "b", "c", "d"]
K = 3

doc_tokens = st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=5)


@st.composite
def block_scenario(draw):
    """A filled block of 1-4 queries over term 'w' plus a new document."""
    n_queries = draw(st.integers(min_value=1, max_value=4))
    pool_tokens = draw(
        st.lists(doc_tokens, min_size=K + 2, max_size=K + 6)
    )
    # Every pool document contains some alphabet terms; ensure each query
    # can fill its result set by letting queries match everything via
    # keyword structure below.
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
    alpha = draw(st.floats(min_value=0.0, max_value=1.0))
    now = float(len(pool) + 10)
    new_doc = Document.from_tokens(len(pool) + 100, new_tokens + ["w"], now)
    return pool, queries, new_doc, alpha, now


def build_block(pool, queries, alpha, scorer):
    """Fill each query's result set from the pool; return block pieces."""
    result_sets = {}
    block = PostingsBlock()
    for qid, terms in queries:
        rs = QueryResultSet(K, track_aggregated_weights=False, alpha=alpha)
        for document in pool:
            if rs.is_full:
                break
            rs.admit(document, scorer.trel(terms, document.vector))
        result_sets[qid] = rs
        block.append(qid)
    block.refresh_metadata(result_sets)
    block.rebuild_mcs("w", result_sets)
    return block, result_sets


def exact_dr_new(terms, rs, new_doc, scorer, alpha):
    sims = sum(
        cosine_similarity(new_doc.vector, entry.document.vector)
        for entry in table_rows(rs)[1:]
    )
    coeff = diversity_coefficient(alpha, K)
    return alpha * scorer.trel(terms, new_doc.vector) + coeff * (K - 1 - sims)


@settings(max_examples=80, deadline=None)
@given(block_scenario())
def test_lemma2_threshold_lower_bound(scenario):
    pool, queries, new_doc, alpha, now = scenario
    stats = CollectionStatistics()
    for document in pool + [new_doc]:
        stats.add(document.vector)
    scorer = LanguageModelScorer(stats, 0.5)
    decay = ExponentialDecay(1.05)
    block, result_sets = build_block(pool, queries, alpha, scorer)
    if block.has_unfilled:
        return
    lower = block_threshold_lower_bound(block, decay, now, alpha)
    exact = exact_group_threshold(
        result_sets, block.query_ids, decay, now, alpha
    )
    assert lower <= exact + 1e-9


@settings(max_examples=80, deadline=None)
@given(block_scenario())
def test_lemma4_trel_upper_bound(scenario):
    pool, queries, new_doc, alpha, now = scenario
    stats = CollectionStatistics()
    for document in pool + [new_doc]:
        stats.add(document.vector)
    scorer = LanguageModelScorer(stats, 0.5)
    # All of the new document's terms are "active" in this scenario.
    ps_values = [
        scorer.ps(new_doc.vector, term) for term in new_doc.vector.terms()
    ]
    upper = block_trel_upper_bound(ps_values)
    for qid, terms in queries:
        assert scorer.trel(terms, new_doc.vector) <= upper + 1e-12


@settings(max_examples=80, deadline=None)
@given(block_scenario())
def test_strict_similarity_bound_is_safe(scenario):
    pool, queries, new_doc, alpha, now = scenario
    stats = CollectionStatistics()
    for document in pool + [new_doc]:
        stats.add(document.vector)
    scorer = LanguageModelScorer(stats, 0.5)
    block, result_sets = build_block(pool, queries, alpha, scorer)
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
    assert sim_lower <= exact_min + 1e-9


@settings(max_examples=80, deadline=None)
@given(block_scenario())
def test_lemma7_strict_skip_never_drops_a_result(scenario):
    pool, queries, new_doc, alpha, now = scenario
    stats = CollectionStatistics()
    for document in pool + [new_doc]:
        stats.add(document.vector)
    scorer = LanguageModelScorer(stats, 0.5)
    decay = ExponentialDecay(1.05)
    block, result_sets = build_block(pool, queries, alpha, scorer)
    if block.has_unfilled:
        return
    threshold = block_threshold_lower_bound(block, decay, now, alpha)
    ps_values = [
        scorer.ps(new_doc.vector, term) for term in new_doc.vector.terms()
    ]
    trel_upper = block_trel_upper_bound(ps_values)
    sim_lower = block_similarity_lower_bound(block, new_doc.vector)
    if group_filters_out(trel_upper, sim_lower, threshold, alpha, K):
        terms_by_qid = dict(queries)
        for qid in block.query_ids:
            rs = result_sets[qid]
            dr_new = exact_dr_new(
                terms_by_qid[qid], rs, new_doc, scorer, alpha
            )
            dr_old = rs.dr_oldest(now, decay, alpha)
            assert not accepts(dr_new, dr_old), (
                "group skip dropped a true result"
            )


@settings(max_examples=60, deadline=None)
@given(block_scenario())
def test_quick_bound_never_drops_a_result(scenario):
    """Appendix A.1's quick bound is a true upper bound on dr_q(d_n)."""
    pool, queries, new_doc, alpha, now = scenario
    stats = CollectionStatistics()
    for document in pool + [new_doc]:
        stats.add(document.vector)
    scorer = LanguageModelScorer(stats, 0.5)
    for qid, terms in queries:
        rs = QueryResultSet(K, track_aggregated_weights=False)
        for document in pool:
            if rs.is_full:
                break
            rs.admit(document, scorer.trel(terms, document.vector))
        if not rs.is_full:
            continue
        trel = scorer.trel(terms, new_doc.vector)
        assert exact_dr_new(terms, rs, new_doc, scorer, alpha) <= (
            quick_relevance_bound(trel, alpha) + 1e-9
        )


@settings(max_examples=60, deadline=None)
@given(block_scenario())
def test_keyword_floor_bound_never_drops_a_result(scenario):
    """ISSUE 23: with the AW addend of any query keyword in the document
    as ``floor`` the bound still dominates the exact ``dr_q(d_n)`` — and,
    as floats, the value the engine computes from the full Lemma 6 sum
    (plain ``<=``) — and is never looser than Appendix A.1's."""
    pool, queries, new_doc, alpha, now = scenario
    stats = CollectionStatistics()
    for document in pool + [new_doc]:
        stats.add(document.vector)
    scorer = LanguageModelScorer(stats, 0.5)
    coeff = diversity_coefficient(alpha, K)
    for qid, terms in queries:
        rs = QueryResultSet(K)
        for document in pool[:K]:
            rs.admit(document, scorer.trel(terms, document.vector))
        trel = scorer.trel(terms, new_doc.vector)
        dr_new = alpha * trel + coeff * (
            (K - 1) - rs.similarity_sum(new_doc.vector)[0]
        )
        for term in terms:
            if term not in new_doc.vector:
                continue
            floor = rs.similarity_floor(term, new_doc.vector)
            bound = quick_relevance_bound(trel, alpha, K, floor, coeff)
            assert dr_new <= bound
            assert exact_dr_new(terms, rs, new_doc, scorer, alpha) <= (
                bound + 1e-9
            )
            assert bound <= quick_relevance_bound(trel, alpha) + 1e-12


def test_accepts_requires_strict_improvement():
    assert not accepts(1.0, 1.0)
    assert not accepts(1.0 + TIE_EPSILON / 2, 1.0)
    assert accepts(1.0 + 2 * TIE_EPSILON, 1.0)
    assert not accepts(0.5, 1.0)


def test_threshold_bound_unfilled_block_is_neg_inf():
    block = PostingsBlock()
    block.append(0)
    # dtrel_min defaults to -inf before any refresh with filled members
    assert block_threshold_lower_bound(
        block, ExponentialDecay(1.01), 0.0, 0.3
    ) == float("-inf")


def test_trel_upper_bound_empty_is_zero():
    assert block_trel_upper_bound([]) == 0.0
