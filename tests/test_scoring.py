"""Tests for relevance, recency, diversity and Lemma 1.

The Lemma 1 property test is the cornerstone: the engines only ever
compare per-document contributions, so the identity

    DR(q.R') - DR(q.R) == dr_q(d_n) - dr_q(q.d_e)

must hold for arbitrary result sets and new documents.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.scoring.contribution import (
    contribution_from_parts,
    dr_of_new,
    dr_of_oldest,
    replacement_improves,
)
from repro.scoring.diversity import (
    diversity_coefficient,
    diversity_score,
    dr_score,
    pairwise_dissimilarity_sum,
    relevance_score,
    sum_similarity_to,
)
from repro.scoring.recency import NO_DECAY, ExponentialDecay
from repro.scoring.relevance import LanguageModelScorer
from repro.stream.document import Document
from repro.text.collection_stats import CollectionStatistics
from repro.text.vectors import TermVector

# -- relevance -----------------------------------------------------------------


def test_ps_mixes_document_and_collection(scorer):
    vector = TermVector.from_tokens(["coffee", "milk"])
    # 0.5 * (1/2) + 0.5 * P(coffee); collection: coffee appears 3 times
    # in 12 tokens.
    expected = 0.5 * 0.5 + 0.5 * (3 / 12)
    assert scorer.ps(vector, "coffee") == pytest.approx(expected)


def test_ps_for_absent_term_is_background(scorer):
    vector = TermVector.from_tokens(["milk"])
    assert scorer.ps(vector, "tea") == pytest.approx(scorer.background("tea"))


def test_ps_empty_document(scorer):
    assert scorer.ps(TermVector({}), "coffee") == pytest.approx(
        scorer.background("coffee")
    )


_WORDS = st.sampled_from(["coffee", "milk", "tea", "mocha", "unseen", "zzz"])


@settings(max_examples=80, deadline=None)
@given(
    terms=st.lists(_WORDS, min_size=0, max_size=4),
    token_lists=st.lists(
        st.lists(_WORDS, min_size=0, max_size=6), min_size=0, max_size=8
    ),
    smoothing=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
)
def test_trels_is_trel_bit_for_bit(terms, token_lists, smoothing):
    """The many-documents form returns the very floats ``trel`` does —
    ranking keys and stored relevances must not depend on which form
    scored a seed — for empty vectors and unseen keywords alike."""
    stats = CollectionStatistics()
    for tokens in (["coffee", "milk"], ["coffee", "tea", "tea"], ["mocha"]):
        stats.add(TermVector.from_tokens(tokens))
    scorer = LanguageModelScorer(stats, smoothing)
    vectors = [TermVector.from_tokens(tokens) for tokens in token_lists]
    scores = scorer.trels(terms, vectors)
    assert len(scores) == len(vectors)
    for score, vector in zip(scores, vectors):
        assert score == scorer.trel(terms, vector)
    # A one-shot iterable of keywords is consumed once, not per document.
    assert scorer.trels(iter(terms), vectors) == scores



def test_trel_is_product(scorer):
    vector = TermVector.from_tokens(["coffee", "espresso"])
    expected = scorer.ps(vector, "coffee") * scorer.ps(vector, "espresso")
    assert scorer.trel(["coffee", "espresso"], vector) == pytest.approx(expected)


def test_trel_from_ps_matches_trel(scorer):
    vector = TermVector.from_tokens(["coffee", "milk", "coffee"])
    cache = {term: scorer.ps(vector, term) for term in vector.terms()}
    direct = scorer.trel(["coffee", "tea"], vector)
    cached = scorer.trel_from_ps(["coffee", "tea"], cache, vector)
    assert cached == pytest.approx(direct)
    # A miss is a keyword absent from the document: resolved as (and
    # memoised at) the background probability, bit for bit PS's value.
    assert cache["tea"] == scorer.background("tea") == scorer.ps(vector, "tea")


@settings(max_examples=150, deadline=None)
@given(
    doc_tokens=st.lists(_WORDS, min_size=1, max_size=6),
    history=st.lists(st.lists(_WORDS, min_size=1, max_size=6), max_size=6),
    others=st.lists(_WORDS, max_size=4),
    smoothing=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    data=st.data(),
)
@example(
    doc_tokens=["coffee"], history=[], others=[], smoothing=0.2, data=None
)
@example(
    doc_tokens=["coffee"], history=[["coffee"], ["coffee", "coffee"]],
    others=["tea"], smoothing=0.5, data=None,
)
def test_reaching_keyword_ps_bounds_trel(
    doc_tokens, history, others, smoothing, data
):
    """The engine's first quick-bound tier: ``TRel`` is a float product
    of ``PS`` values, one of them each present keyword's, so it is at most
    that keyword's ``PS`` as floats — in any keyword order, for one-term
    documents and a one-term collection too."""
    stats = CollectionStatistics()
    for tokens in history:
        stats.add(TermVector.from_tokens(tokens))
    vector = TermVector.from_tokens(doc_tokens)
    stats.add(vector)
    scorer = LanguageModelScorer(stats, smoothing)
    ps_cache = {term: scorer.ps(vector, term) for term in vector.terms()}
    present = sorted(ps_cache)
    if data is not None:
        present = data.draw(
            st.lists(st.sampled_from(present), min_size=1, unique=True)
        )
    keywords = list(dict.fromkeys(present + others))
    if data is not None:
        keywords = data.draw(st.permutations(keywords))
    trel = scorer.trel_from_ps(keywords, dict(ps_cache), vector)
    for term in present:
        assert trel <= ps_cache[term]


def test_trel_never_zero(scorer):
    vector = TermVector.from_tokens(["unrelated"])
    assert scorer.trel(["neverseen1", "neverseen2"], vector) > 0.0


def test_smoothing_lambda_validated(stats_with_docs):
    with pytest.raises(ValueError):
        LanguageModelScorer(stats_with_docs, smoothing_lambda=1.5)


def test_lambda_one_is_pure_background(stats_with_docs):
    scorer = LanguageModelScorer(stats_with_docs, smoothing_lambda=1.0)
    with_term = TermVector.from_tokens(["coffee"])
    without = TermVector.from_tokens(["milk"])
    assert scorer.ps(with_term, "coffee") == pytest.approx(
        scorer.ps(without, "coffee")
    )


# -- recency --------------------------------------------------------------


def test_decay_at_age_zero_is_one():
    assert ExponentialDecay(2.0).at_age(0.0) == 1.0
    assert ExponentialDecay(2.0).at_age(-5.0) == 1.0


def test_decay_halves_per_unit():
    decay = ExponentialDecay(2.0)
    assert decay.at_age(1.0) == pytest.approx(0.5)
    assert decay.at_age(3.0) == pytest.approx(0.125)


def test_decay_from_scale():
    decay = ExponentialDecay.from_scale(0.5, horizon=7200.0)
    assert decay.at_age(7200.0) == pytest.approx(0.5)
    assert decay.at_age(3600.0) == pytest.approx(math.sqrt(0.5))


def test_decay_from_half_life():
    decay = ExponentialDecay.from_half_life(100.0)
    assert decay.at_age(100.0) == pytest.approx(0.5)


def test_no_decay():
    assert NO_DECAY.at(0.0, 1e9) == 1.0


def test_decay_validation():
    with pytest.raises(ValueError):
        ExponentialDecay(0.9)
    with pytest.raises(ValueError):
        ExponentialDecay.from_scale(0.0, 10.0)
    with pytest.raises(ValueError):
        ExponentialDecay.from_scale(0.5, -1.0)


def test_decay_monotone():
    decay = ExponentialDecay(1.01)
    values = [decay.at_age(a) for a in (0, 1, 5, 50)]
    assert values == sorted(values, reverse=True)


# -- diversity ----------------------------------------------------------------


def _docs(*token_lists):
    return [
        Document.from_tokens(i, tokens, float(i))
        for i, tokens in enumerate(token_lists)
    ]


def test_diversity_coefficient():
    assert diversity_coefficient(0.3, 30) == pytest.approx(1.4 / 29)
    assert diversity_coefficient(1.0, 30) == 0.0
    assert diversity_coefficient(0.3, 1) == 0.0


def test_pairwise_dissimilarity_identical_docs():
    docs = _docs(["a"], ["a"])
    assert pairwise_dissimilarity_sum(docs) == pytest.approx(0.0)


def test_pairwise_dissimilarity_disjoint_docs():
    docs = _docs(["a"], ["b"], ["c"])
    assert pairwise_dissimilarity_sum(docs) == pytest.approx(3.0)


def test_diversity_score_normalisation():
    docs = _docs(["a"], ["b"])
    # one pair, dissimilarity 1, times 2/(k-1) with k=3.
    assert diversity_score(docs, k=3) == pytest.approx(1.0)
    assert diversity_score(docs, k=1) == 0.0


def test_sum_similarity_to():
    docs = _docs(["a"], ["a", "b"])
    new = Document.from_tokens(9, ["a"], 9.0)
    expected = 1.0 + 1.0 / math.sqrt(2.0)
    assert sum_similarity_to(new, docs) == pytest.approx(expected)


def test_relevance_score_combines_trel_and_decay(scorer):
    decay = ExponentialDecay(2.0)
    doc = Document.from_tokens(0, ["coffee"], 0.0)
    value = relevance_score(["coffee"], doc, scorer, decay, now=1.0)
    assert value == pytest.approx(scorer.trel(["coffee"], doc.vector) * 0.5)


# -- Lemma 1 ------------------------------------------------------------------

tokens_strategy = st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(tokens_strategy, min_size=2, max_size=6),
    tokens_strategy,
    st.lists(st.sampled_from("abcdef"), min_size=1, max_size=3),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_lemma1_identity(result_tokens, new_tokens, query_terms, alpha):
    """DR(q.R') - DR(q.R) == dr_q(d_n) - dr_q(q.d_e) (Lemma 1)."""
    stats = CollectionStatistics()
    documents = [
        Document.from_tokens(i, tokens, float(i))
        for i, tokens in enumerate(result_tokens)
    ]
    new_doc = Document.from_tokens(100, new_tokens, 100.0)
    for doc in documents + [new_doc]:
        stats.add(doc.vector)
    scorer = LanguageModelScorer(stats, 0.5)
    decay = ExponentialDecay(1.01)
    now = 100.0
    k = len(documents)
    terms = tuple(query_terms)

    oldest = documents[0]
    kept = documents[1:]
    replaced = kept + [new_doc]

    dr_before = dr_score(terms, documents, scorer, decay, now, alpha, k)
    dr_after = dr_score(terms, replaced, scorer, decay, now, alpha, k)
    contribution_new = dr_of_new(terms, new_doc, kept, scorer, alpha, k)
    contribution_old = dr_of_oldest(
        terms, documents, scorer, decay, now, alpha, k
    )
    assert (dr_after - dr_before) == pytest.approx(
        contribution_new - contribution_old, abs=1e-9
    )


def test_replacement_improves_matches_direct_comparison(scorer, decay):
    documents = _docs(["coffee"], ["coffee"], ["coffee"])
    new_doc = Document.from_tokens(50, ["coffee", "espresso"], 50.0)
    terms = ("coffee",)
    now = 50.0
    k = 3
    direct_before = dr_score(terms, documents, scorer, decay, now, 0.3, k)
    direct_after = dr_score(
        terms, documents[1:] + [new_doc], scorer, decay, now, 0.3, k
    )
    assert replacement_improves(
        terms, documents, new_doc, scorer, decay, now, 0.3, k
    ) == (direct_after > direct_before)


def test_contribution_from_parts():
    value = contribution_from_parts(
        trel=0.2, recency=0.5, sim_sum=1.0, alpha=0.5, k=3
    )
    # 0.5*0.2*0.5 + (1.0/2)*(2 - 1.0)
    assert value == pytest.approx(0.05 + 0.5)
