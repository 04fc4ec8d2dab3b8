"""Tests for result-set initialisation."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveEngine
from repro.config import EngineConfig
from repro.core.engine import DasEngine
from repro.core.initializer import select_initial_documents
from repro.core.query import DasQuery
from repro.core.result_set import QueryResultSet
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


def test_relevant_strategy_prefers_high_tf():
    store, scorer, decay = build_store(
        [["x", "x", "x"], ["x", "pad", "pad", "pad", "pad"], ["x", "x", "pad"]]
    )
    seeds, _ = select_initial_documents(
        store, ["x"], k=2, scan_limit=10, scorer=scorer, decay=decay, now=3.0
    )
    ids = {d.doc_id for d in seeds}
    assert ids == {0, 2}  # the two high-tf documents
    assert [d.doc_id for d in seeds] == sorted(ids)


def test_empty_store_returns_nothing():
    store, scorer, decay = build_store([])
    assert select_initial_documents(store, ["x"], 3, 10) == ([], [])


def test_no_matches_returns_nothing():
    store, scorer, decay = build_store([["a"], ["b"]])
    assert select_initial_documents(store, ["zz"], 3, 10) == ([], [])


def test_fewer_matches_than_k():
    store, scorer, decay = build_store([["x"], ["y"], ["x", "x"]])
    seeds, trels = select_initial_documents(
        store, ["x"], k=5, scan_limit=10, scorer=scorer, decay=decay, now=3.0
    )
    # All of them seed, oldest first, scored like a ranked pick.
    assert [d.doc_id for d in seeds] == [0, 2]
    assert trels == [scorer.trel(["x"], d.vector) for d in seeds]


def test_relevant_requires_scorer():
    store, scorer, decay = build_store([["x"], ["x"], ["x"], ["x"]])
    with pytest.raises(ValueError):
        select_initial_documents(store, ["x"], 2, 10)
    with pytest.raises(ValueError):
        select_initial_documents(store, ["x"], 5, 10, scorer=scorer)


def test_scan_limit_bounds_candidates():
    store, scorer, decay = build_store([["x"] for _ in range(10)])
    seeds, _ = select_initial_documents(
        store, ["x"], k=10, scan_limit=3, scorer=scorer, decay=decay, now=10.0
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
            store, ("x", "y"), 2, 10, scorer=scorer, decay=decay, now=now
        )
        expected = _reference_relevant(
            store, ("x", "y"), 2, 10, scorer, decay, now
        )
        assert [d.doc_id for d in seeds] == [d.doc_id for d in expected]
        # The TRel handed back is the one ranked by, bit for bit.
        assert trels == [scorer.trel(("x", "y"), d.vector) for d in seeds]


# -- the engine's seeding against the naive oracle ---------------------------

_SEED_WORDS = "pqrstu"


def _seed_stream(token_lists):
    # Pairs of documents share a timestamp, so seed rankings meet the
    # same age twice and read the decay memo back.
    return [
        Document.from_tokens(i, tokens, float(i // 2) * 0.75)
        for i, tokens in enumerate(token_lists)
    ]


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(1, 4),
    scan_limit=st.sampled_from([3, 256]),
    # λ = 0.5 scales by a power of two, which hides a reassociated PS.
    smoothing=st.sampled_from([0.0, 0.3, 1.0]),
    token_lists=st.lists(
        st.lists(st.sampled_from(_SEED_WORDS), min_size=1, max_size=6),
        min_size=1,
        max_size=24,
    ),
    schedule=st.lists(
        st.tuples(
            st.integers(0, 24),
            st.lists(
                st.sets(st.sampled_from(_SEED_WORDS), min_size=1, max_size=3),
                min_size=1,
                max_size=4,
            ),
        ),
        min_size=1,
        max_size=5,
    ),
)
@example(
    k=2,
    scan_limit=256,
    smoothing=0.3,
    token_lists=[["p", "q"], ["p"], ["p", "r"], ["p", "p"], ["s"], ["p"]],
    # {"p"} has more candidates than k, {"s"} and {"u"} fewer.
    schedule=[(6, [{"p"}, {"s"}, {"u"}, {"p", "s"}])],
).via("more and fewer candidates than k")
def test_subscribe_seeds_as_the_naive_engine_does(
    k, scan_limit, smoothing, token_lists, schedule
):
    """The optimised engine's seeding (one ``trels`` pass, ranking read
    through its decay memo, single-term store scan) picks the naive
    oracle's seeds in its order, stores its ``TRel`` floats and the
    ``sim_acc`` of a table admitted row by row; the memo it leaves holds
    only exact powers, and a publish after it notifies as an engine whose
    memo was cleared does."""
    config = EngineConfig(
        k=k,
        decay_base=1.05,
        smoothing_lambda=smoothing,
        block_size=2,
        init_scan_limit=scan_limit,
    )
    engine = DasEngine(config)
    cleared = DasEngine(config)
    naive = NaiveEngine(
        config.evolve(
            use_blocks=False, use_group_filter=False, use_agg_weights=False
        )
    )
    plain = ExponentialDecay(config.decay_base)
    documents = _seed_stream(token_lists)
    bursts = sorted(schedule, key=lambda step: step[0])
    # Publish up to each burst's position, subscribe the burst, and
    # publish the rest of the stream after the last one.
    starts = [0] + [position for position, _ in bursts]
    stops = [position for position, _ in bursts] + [len(documents)]
    bursts.append((len(documents), []))
    query_id = 0
    for start, stop, (_, query_terms) in zip(starts, stops, bursts):
        for document in documents[start:stop]:
            notified = engine.publish(document)
            assert notified == cleared.publish(document)
            naive.publish(document)
        for terms in query_terms:
            query = DasQuery(query_id, sorted(terms))
            query_id += 1
            seeds = [d.doc_id for d in engine.subscribe(query)]
            cleared.subscribe(query)
            assert seeds == [d.doc_id for d in naive.subscribe(query)]
            table = engine._result_sets[query.query_id]
            rows = naive._results[query.query_id]
            assert list(table._trels) == [row.trel for row in rows]
            twin = QueryResultSet(k, alpha=config.alpha)
            for row in rows:
                twin.admit(row.document, row.trel)
            # Every row's TRel, Eq. 24 sum and R1 / AW bits, exactly.
            assert [(row[0].doc_id, *row[1:]) for row in table.rows()] == [
                (row[0].doc_id, *row[1:]) for row in twin.rows()
            ]
        for age, power in engine._decay_cache.powers.items():
            assert power == plain.at_age(age)
        cleared._decay_cache.clear()
    for qid in range(query_id):
        assert [d.doc_id for d in engine.results(qid)] == [
            d.doc_id for d in naive.results(qid)
        ]
