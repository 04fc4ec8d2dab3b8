"""Edge-case and invariant tests across modules.

Covers the corners the main suites don't: k = 1 (no diversity term),
alpha extremes, the PS <= 1 property that Lemma 4's bound rests on, and
index behaviour around unsubscription.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveEngine
from repro.baselines.strategy_oracles import SpatialOracle, WindowOracle
from repro.config import EngineConfig
from repro.core.engine import DasEngine
from repro.core.query import DasQuery
from repro.errors import DocumentOrderError
from repro.scoring.relevance import LanguageModelScorer
from repro.stream.clock import SimulationClock
from repro.stream.document import Document
from repro.text.collection_stats import CollectionStatistics
from repro.text.vectors import TermVector


def doc(i, tokens, t=None):
    return Document.from_tokens(i, tokens, float(i) if t is None else t)


# -- PS bounds (the foundation of Lemma 4) ------------------------------------

tokens_strategy = st.lists(st.sampled_from("abcdef"), min_size=0, max_size=12)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(tokens_strategy, min_size=1, max_size=5),
    tokens_strategy,
    st.sampled_from("abcdef"),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_ps_is_a_probability(corpus_tokens, doc_tokens, term, lam):
    """0 < PS(d, w) <= 1 for any document, term and smoothing — Eq. 18's
    single-factor bound is only valid because every factor is <= 1."""
    stats = CollectionStatistics()
    for tokens in corpus_tokens:
        stats.add(TermVector.from_tokens(tokens))
    scorer = LanguageModelScorer(stats, lam)
    vector = TermVector.from_tokens(doc_tokens)
    value = scorer.ps(vector, term)
    assert 0.0 <= value <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.lists(tokens_strategy, min_size=1, max_size=4),
    st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4),
    st.lists(st.sampled_from("abcdef"), min_size=1, max_size=10),
)
def test_trel_bounded_by_every_factor(corpus_tokens, query_terms, doc_tokens):
    """TRel(q, d) <= PS(d, w) for every query keyword w (product of
    probabilities)."""
    stats = CollectionStatistics()
    for tokens in corpus_tokens:
        stats.add(TermVector.from_tokens(tokens))
    scorer = LanguageModelScorer(stats, 0.5)
    vector = TermVector.from_tokens(doc_tokens)
    trel = scorer.trel(query_terms, vector)
    for term in query_terms:
        assert trel <= scorer.ps(vector, term) + 1e-12


# -- k = 1 ------------------------------------------------------------------------


def test_k1_is_pure_relevance_recency():
    """With k = 1 the diversity term vanishes; the single result is the
    best α·TRel·T document seen so far (favouring recency)."""
    engine = DasEngine.for_method("GIFilter", k=1)
    engine.subscribe(DasQuery(0, ["kw"]))
    engine.publish(doc(0, ["kw", "pad", "pad", "pad"]))  # modest tf ratio
    assert [d.doc_id for d in engine.results(0)] == [0]
    # A weaker document does not displace it.
    engine.publish(doc(1, ["kw"] + [f"f{i}" for i in range(20)], t=1.0))
    assert [d.doc_id for d in engine.results(0)] == [0]
    # A clearly stronger, fresher one does.
    engine.publish(doc(2, ["kw", "kw", "kw"], t=500.0))
    assert [d.doc_id for d in engine.results(0)] == [2]


def test_k1_equivalence_with_oracle():
    engines = {
        "engine": DasEngine.for_method("GIFilter", k=1, block_size=2),
        "oracle": NaiveEngine(
            EngineConfig(
                k=1, use_blocks=False, use_group_filter=False,
                use_agg_weights=False,
            )
        ),
    }
    queries = [DasQuery(0, ["aa"]), DasQuery(1, ["bb", "aa"])]
    for engine in engines.values():
        for query in queries:
            engine.subscribe(query)
    for i, tokens in enumerate(
        (["aa"], ["bb"], ["aa", "bb"], ["aa", "aa"], ["bb", "cc"])
    ):
        for engine in engines.values():
            engine.publish(doc(i, tokens))
    for query in queries:
        assert [d.doc_id for d in engines["engine"].results(query.query_id)] == [
            d.doc_id for d in engines["oracle"].results(query.query_id)
        ]


# -- alpha extremes ----------------------------------------------------------------


def test_alpha_one_ignores_diversity():
    """α = 1: a duplicate of an existing result wins on recency alone."""
    engine = DasEngine.for_method("GIFilter", k=2, alpha=1.0)
    engine.subscribe(DasQuery(0, ["kw"]))
    engine.publish(doc(0, ["kw", "pad"]))
    engine.publish(doc(1, ["kw", "pad"]))
    notes = engine.publish(doc(2, ["kw", "pad"], t=300.0))
    assert any(n.is_replacement for n in notes)


def test_alpha_zero_is_pure_diversity():
    """α = 0: only the pairwise-dissimilarity change matters."""
    engine = DasEngine.for_method("GIFilter", k=3, alpha=0.0)
    engine.subscribe(DasQuery(0, ["kw"]))
    for i in range(3):
        engine.publish(doc(i, ["kw", "same"]))
    # A duplicate cannot improve D at all -> rejected.
    assert engine.publish(doc(10, ["kw", "same"], t=10.0)) == []
    # A maximally dissimilar matching document improves D -> accepted.
    notes = engine.publish(doc(11, ["kw2", "kw", "different"], t=11.0))
    assert notes and notes[0].is_replacement


# -- index behaviour around unsubscription -------------------------------------------


def test_unsubscribe_from_middle_block_keeps_lookup_working():
    engine = DasEngine.for_method("GIFilter", k=2, block_size=2)
    for qid in range(6):
        engine.subscribe(DasQuery(qid, ["shared"]))
    engine.unsubscribe(2)
    engine.unsubscribe(3)  # empties the middle block entirely
    notes = engine.publish(doc(0, ["shared"]))
    assert {n.query_id for n in notes} == {0, 1, 4, 5}


def test_unsubscribe_all_then_resubscribe_larger_ids():
    engine = DasEngine.for_method("GIFilter", k=2, block_size=2)
    engine.subscribe(DasQuery(0, ["kw"]))
    engine.unsubscribe(0)
    engine.subscribe(DasQuery(1, ["kw"]))
    notes = engine.publish(doc(0, ["kw"]))
    assert [n.query_id for n in notes] == [1]


# -- stream discipline -----------------------------------------------------------------


def test_documents_at_identical_timestamps():
    engine = DasEngine.for_method("GIFilter", k=2)
    engine.subscribe(DasQuery(0, ["kw"]))
    engine.publish(doc(0, ["kw"], t=5.0))
    engine.publish(doc(1, ["kw"], t=5.0))
    assert len(engine.results(0)) == 2


def test_out_of_order_document_rejected():
    engine = DasEngine.for_method("GIFilter", k=2)
    engine.publish(doc(5, ["kw"], t=5.0))
    with pytest.raises(DocumentOrderError):
        engine.publish(doc(4, ["kw"], t=6.0))


def _ahead_engines(mode="decay"):
    config = EngineConfig(k=2, decay_base=1.5, mode=mode)
    if mode == "decay":
        oracle = NaiveEngine(config, clock=SimulationClock(30.0))
    elif mode == "window":
        oracle = WindowOracle(config, clock=SimulationClock(30.0))
    else:
        oracle = SpatialOracle(config, clock=SimulationClock(30.0))
    return DasEngine(config, clock=SimulationClock(30.0)), oracle


def _outcome(target, document):
    """The notifications as plain tuples, or the refusal with what it left."""
    before = (target.counters.as_dict(), len(target.store))
    try:
        notes = target.publish(document)
    except DocumentOrderError:
        assert (target.counters.as_dict(), len(target.store)) == before
        return "refused"
    return [
        (n.query_id, n.document.doc_id, n.replaced and n.replaced.doc_id)
        for n in notes
    ]


@pytest.mark.parametrize("mode", ["decay", "window", "spatial"])
def test_document_behind_the_clock_is_refused_by_engine_and_oracle(mode):
    """An engine whose clock is ahead of a document used to treat it as
    current (T = 1) while its oracle decayed it; both now refuse it and
    change nothing, and agree on every document at or after the clock."""
    rng = random.Random(0)
    engine, oracle = _ahead_engines(mode)
    where = (0.5, 0.5) if mode == "spatial" else None
    engine.subscribe(DasQuery(1, ("a",), location=where))
    oracle.subscribe(DasQuery(1, ("a",), location=where))
    outcomes = []
    for i in range(40):
        terms = ["a"] + rng.sample("bcdefghi", rng.randint(1, 4))
        if mode == "spatial":
            where = (rng.random(), rng.random())
        document = Document.from_tokens(i, terms, float(i), location=where)
        outcomes.append(_outcome(engine, document))
        assert _outcome(oracle, document) == outcomes[-1]
    assert outcomes[:30] == ["refused"] * 30
    # A document exactly at the clock (doc 30, t = 30.0) is accepted.
    assert all(outcome != "refused" for outcome in outcomes[30:])
    assert len(engine.store) == len(oracle.store) == 10


def test_publish_batch_refuses_before_any_state_changes():
    engine = DasEngine(EngineConfig(k=2), clock=SimulationClock(30.0))
    engine.subscribe(DasQuery(1, ("a",)))
    before = engine.counters.as_dict()
    with pytest.raises(DocumentOrderError):
        engine.publish_batch([doc(0, ["a"], t=29.0)])
    assert engine.counters.as_dict() == before
    assert len(engine.store) == 0


def test_publish_batch_refuses_like_sequential_publishes():
    engine = DasEngine(EngineConfig(k=2))
    engine.subscribe(DasQuery(1, ("a",)))
    batch = [doc(0, ["a"], t=5.0), doc(1, ["a"], t=6.0), doc(2, ["a"], t=4.0)]
    with pytest.raises(DocumentOrderError):
        engine.publish_batch(batch)
    # The documents before the refused one were published, as they are
    # by one publish call each.
    assert sorted(d.doc_id for d in engine.results(1)) == [0, 1]
    assert engine.clock.now == 6.0


def test_single_term_vocabulary_stream():
    """Degenerate corpus: every document is the same single term."""
    engine = DasEngine.for_method("GIFilter", k=3, block_size=2)
    for qid in range(4):
        engine.subscribe(DasQuery(qid, ["only"]))
    for i in range(10):
        engine.publish(doc(i, ["only"]))
    for qid in range(4):
        assert len(engine.results(qid)) == 3
