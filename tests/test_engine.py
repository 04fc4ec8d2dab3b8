"""Behavioural tests for the DAS engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveEngine
from repro.config import EngineConfig, UNLIMITED
from repro.core.engine import DasEngine
from repro.core.query import DasQuery
from repro.errors import (
    ConfigurationError,
    DuplicateQueryError,
    QueryOrderError,
    UnknownQueryError,
)
from repro.stream.document import Document
from repro.text.vectors import cosine_similarity
from tests.conftest import table_rows


def doc(i, tokens, t=None):
    return Document.from_tokens(i, tokens, float(i) if t is None else t)


def make_engine(**overrides):
    return DasEngine.for_method("GIFilter", k=3, block_size=4, **overrides)


def _changes(notifications):
    return sorted(
        (n.query_id, n.document.doc_id, n.replaced and n.replaced.doc_id)
        for n in notifications
    )


def test_method_configs():
    assert DasEngine.for_method("GIFilter").method_name == "GIFilter"
    assert DasEngine.for_method("IFilter").method_name == "IFilter"
    assert DasEngine.for_method("BIRT").method_name == "BIRT"
    assert DasEngine.for_method("IRT").method_name == "IRT"
    with pytest.raises(ValueError):
        DasEngine.for_method("nope")


def test_group_filter_requires_blocks():
    with pytest.raises(ConfigurationError):
        EngineConfig(use_blocks=False, use_group_filter=True)


def test_subscribe_empty_store_returns_no_results():
    engine = make_engine()
    assert engine.subscribe(DasQuery(0, ["coffee"])) == []
    assert engine.results(0) == []
    assert engine.query_count == 1


def test_subscribe_initialises_from_history():
    engine = make_engine()
    for i in range(5):
        engine.publish(doc(i, ["coffee", f"extra{i}"]))
    results = engine.subscribe(DasQuery(0, ["coffee"]))
    assert len(results) == 3
    assert all("coffee" in d.vector for d in results)


def test_duplicate_subscription_rejected():
    engine = make_engine()
    engine.subscribe(DasQuery(0, ["a"]))
    with pytest.raises(DuplicateQueryError):
        engine.subscribe(DasQuery(0, ["b"]))


def test_query_ids_must_increase():
    engine = make_engine()
    engine.subscribe(DasQuery(5, ["a"]))
    with pytest.raises(QueryOrderError):
        engine.subscribe(DasQuery(3, ["b"]))


def test_unknown_query_errors():
    engine = make_engine()
    with pytest.raises(UnknownQueryError):
        engine.results(7)
    with pytest.raises(UnknownQueryError):
        engine.unsubscribe(7)


def test_warmup_admits_matching_documents():
    engine = make_engine()
    engine.subscribe(DasQuery(0, ["coffee"]))
    notes = engine.publish(doc(0, ["coffee"]))
    assert len(notes) == 1
    assert notes[0].query_id == 0
    assert notes[0].replaced is None
    assert not notes[0].is_replacement
    assert [d.doc_id for d in engine.results(0)] == [0]


def test_non_matching_document_ignored():
    engine = make_engine()
    engine.subscribe(DasQuery(0, ["coffee"]))
    assert engine.publish(doc(0, ["tea"])) == []
    assert engine.results(0) == []


def test_empty_document_ignored():
    engine = make_engine()
    engine.subscribe(DasQuery(0, ["coffee"]))
    assert engine.publish(Document(0, Document.from_tokens(0, [], 0.0).vector, 0.0)) == []


def test_replacement_emits_notification_with_evicted():
    engine = make_engine()
    engine.subscribe(DasQuery(0, ["coffee"]))
    for i in range(3):
        engine.publish(doc(i, ["coffee", "dup"]))
    # A fresher, more diverse coffee document should displace doc 0.
    notes = engine.publish(doc(10, ["coffee", "beans", "roast"], t=10.0))
    assert len(notes) == 1
    assert notes[0].is_replacement
    assert notes[0].replaced.doc_id == 0
    assert 10 in [d.doc_id for d in engine.results(0)]


def test_clock_advances_with_documents():
    engine = make_engine()
    engine.publish(doc(0, ["x"], t=5.0))
    assert engine.clock.now == 5.0
    engine.publish(doc(1, ["x"], t=5.0))  # same time fine
    assert engine.clock.now == 5.0


def test_unsubscribe_releases_everything():
    engine = make_engine()
    for i in range(3):
        engine.publish(doc(i, ["coffee"]))
    engine.subscribe(DasQuery(0, ["coffee"]))
    engine.unsubscribe(0)
    assert engine.query_count == 0
    # publishing continues without errors
    engine.publish(doc(10, ["coffee"], t=10.0))


def test_current_dr_nonnegative_and_consistent():
    engine = make_engine()
    for i in range(4):
        engine.publish(doc(i, ["coffee", f"x{i}"]))
    engine.subscribe(DasQuery(0, ["coffee"]))
    value = engine.current_dr(0)
    assert value > 0.0


def test_index_size_report_counts():
    engine = make_engine()
    for i in range(4):
        engine.publish(doc(i, ["coffee"]))
    engine.subscribe(DasQuery(0, ["coffee", "beans"]))
    report = engine.index_size_report()
    assert report["postings"] == 2
    assert report["result_entries"] == 3
    assert report["stored_documents"] == 4
    assert report["approx_bytes"] > 0


def test_counters_track_work():
    engine = make_engine()
    engine.subscribe(DasQuery(0, ["coffee"]))
    engine.publish(doc(0, ["coffee"]))
    c = engine.counters
    assert c.docs_published == 1
    assert c.queries_subscribed == 1
    assert c.queries_evaluated == 1
    assert c.matches == 1


def test_many_queries_multiple_blocks():
    engine = DasEngine.for_method("GIFilter", k=2, block_size=2)
    for i in range(10):
        engine.publish(doc(i, ["shared", f"only{i}"]))
    for qid in range(7):
        engine.subscribe(DasQuery(qid, ["shared"]))
    notes = engine.publish(doc(50, ["shared", "fresh"], t=50.0))
    # every query sees the same stream; with identical states they all
    # either accept or reject together.
    assert len({n.query_id for n in notes}) == len(notes)
    index = engine.index_size_report()
    assert index["blocks"] >= 4


def test_phi_max_zero_pushes_everything_to_r2():
    engine = DasEngine.for_method("IFilter", k=3, phi_max=0)
    engine.subscribe(DasQuery(0, ["coffee"]))
    for i in range(5):
        engine.publish(doc(i, ["coffee", f"v{i}"]))
    rs = engine._result_sets[0]
    assert all(not entry.aw_resident for entry in table_rows(rs))
    assert rs.aw_entry_count == 0


def test_greedy_init_strategy():
    engine = DasEngine(
        DasEngine.for_method("GIFilter", k=2).config, init_strategy="greedy"
    )
    for i in range(8):
        engine.publish(doc(i, ["coffee", f"y{i}"]))
    results = engine.subscribe(DasQuery(0, ["coffee"]))
    assert len(results) == 2


def test_bad_init_strategy_rejected():
    engine = DasEngine(init_strategy="nonsense")
    engine.publish(doc(0, ["coffee"]))
    with pytest.raises(ValueError):
        engine.subscribe(DasQuery(0, ["coffee"]))


def test_subscribe_scores_once_and_completes_eq24_with_one_dot(monkeypatch):
    """Work pin (ISSUE 21): with more candidates than k the ``relevant``
    ranking's one scored pass is the only scoring a subscribe does, and
    the oldest seed's accumulated similarity costs one Lemma 6 dot — no
    per-document ``trel`` call, no per-seed cosine."""
    engine = make_engine()
    for i in range(8):
        engine.publish(doc(i, ["coffee", f"extra{i % 3}"]))
    before = engine.counters.snapshot()
    scorer_type = type(engine.scorer)
    calls = []
    real_trel = scorer_type.trel
    monkeypatch.setattr(
        scorer_type,
        "trel",
        lambda self, terms, vector: calls.append(1) or real_trel(self, terms, vector),
    )
    results = engine.subscribe(DasQuery(0, ["coffee"]))
    assert len(results) == 3
    assert calls == []
    spent = engine.counters.delta(before)
    assert spent.sim_evaluations == 0
    assert spent.aw_dot_products == 1
    rs = engine._result_sets[0]
    head = table_rows(rs)[0]
    assert [e.trel for e in table_rows(rs)] == [
        real_trel(engine.scorer, ("coffee",), e.document.vector)
        for e in table_rows(rs)
    ]
    assert head.sim_acc == pytest.approx(
        sum(
            cosine_similarity(head.document.vector, e.document.vector)
            for e in table_rows(rs)[1:]
        ),
        abs=1e-12,
    )
    # With no more candidates than k nothing was ranked, so the seeds are
    # scored afterwards, all of them in one ``trels`` pass.
    passes = []
    real_trels = scorer_type.trels
    monkeypatch.setattr(
        scorer_type,
        "trels",
        lambda self, terms, vectors: passes.append(len(vectors))
        or real_trels(self, terms, vectors),
    )
    engine.subscribe(DasQuery(1, ["extra2"]))
    assert calls == []
    assert passes == [len(engine.results(1))] == [2]
    assert [e.trel for e in table_rows(engine._result_sets[1])] == [
        real_trel(engine.scorer, ("extra2",), e.document.vector)
        for e in table_rows(engine._result_sets[1])
    ]


def test_warmup_admit_maintains_nothing_until_the_fill():
    """Work pin (ISSUE 22): a warm-up admit that does not fill the query
    is ``admit`` + pin + notification — it leaves every membership
    block's ``meta_dirty`` as it was and meters no cosine and no dot;
    the admit that fills the query dirties its blocks, drops their MCS
    covers and pays exactly one Lemma 6 dot (unlimited ``Φ_max``)."""
    engine = make_engine()
    engine.publish(doc(0, ["coffee", "new0"]))
    before = engine.counters.snapshot()
    engine.subscribe(DasQuery(0, ["coffee"]))
    spent = engine.counters.delta(before)
    # Fewer candidates than k: subscribing builds rows and nothing else.
    assert (spent.sim_evaluations, spent.aw_dot_products) == (0, 0)
    result_set = engine._result_sets[0]
    assert result_set.size == 1 and result_set.aggregated_weights is None
    assert engine.index_size_report()["warmup_queries"] == 1
    blocks = engine._memberships[0]
    assert type(blocks) is tuple and len(blocks) == 1
    assert blocks[0] is engine._index.list_for("coffee")[-1]

    def publish_over_settled_blocks(document):
        for block in blocks:
            block.refresh_metadata(engine._result_sets)
            block.rebuild_mcs("coffee", engine._result_sets)
            assert not block.meta_dirty and block.mcs_sets is not None
        before = engine.counters.snapshot()
        assert [n.query_id for n in engine.publish(document)] == [0]
        return engine.counters.delta(before)

    spent = publish_over_settled_blocks(doc(1, ["coffee", "new1"]))
    assert (spent.sim_evaluations, spent.aw_dot_products) == (0, 0)
    assert not result_set.is_full and result_set.aggregated_weights is None
    assert not any(block.meta_dirty for block in blocks)
    assert all(block.mcs_sets is not None for block in blocks)

    spent = publish_over_settled_blocks(doc(2, ["coffee", "new1", "new2"]))
    assert result_set.is_full
    assert (spent.sim_evaluations, spent.aw_dot_products) == (0, 1)
    assert all(block.meta_dirty and block.mcs_sets is None for block in blocks)
    report = engine.index_size_report()
    assert report["warmup_queries"] == 0 and report["aw_entries"] == 3
    head = table_rows(result_set)[0]
    assert head.sim_acc == pytest.approx(
        sum(
            cosine_similarity(head.document.vector, e.document.vector)
            for e in table_rows(result_set)[1:]
        ),
        abs=1e-12,
    )


def _work_pin_run(method, k=4, block_size=4, queries=40, **overrides):
    """Counters of one fixed 300-document run (60 warm-up documents,
    ``queries`` LQD subscriptions, 240 streamed documents)."""
    engine = DasEngine.for_method(
        method, k=k, block_size=block_size, **overrides
    )
    _work_pin_changes(engine, queries)
    return engine.counters


def _work_pin_changes(engine, queries=40):
    """Drive the :func:`_work_pin_run` stream through ``engine``; returns
    the streamed documents' change lists."""
    from repro.workloads.corpus import SyntheticTweetCorpus
    from repro.workloads.queries import lqd_queries

    corpus = SyntheticTweetCorpus(
        vocab_size=150, n_topics=5, doc_length=(4, 9), seed=19
    )
    docs = corpus.documents(300)
    for document in docs[:60]:
        engine.publish(document)
    for query in lqd_queries(corpus, queries, first_id=0):
        engine.subscribe(query)
    return [_changes(engine.publish(document)) for document in docs[60:]]


def test_result_updates_do_not_pay_per_entry_cosines():
    """Work pin (ISSUE 19, tightened by ISSUE 22): with every arrival
    summarised no result-table cosine is left — warm-up rows accumulate
    nothing and the fill is one dot — so IFilter (no cover cosines)
    computes none at all: an O(k)-per-update path, or a per-admit
    cosine, cannot come back unnoticed."""
    counters = _work_pin_run("IFilter")
    assert counters.matches == 285
    assert counters.sim_evaluations == 0
    assert counters.aw_dot_products > 0


@pytest.mark.parametrize(
    "method, overrides, parent_sim_evaluations",
    [
        ("BIRT", {}, 7456),
        ("IRT", {}, 7456),
        ("IFilter", {"phi_max": 60}, 6621),
    ],
    ids=["birt", "irt", "tight-phi-max"],
)
def test_baselines_compute_no_more_cosines_than_before(
    method, overrides, parent_sim_evaluations
):
    """The same stream where arrivals stay out of the summary (no AW
    table, or a ``Φ_max`` that forces R2): ``sim_evaluations`` is not
    above the count recorded at the commit before promotion-time
    completion, so Figs. 4–7's baselines were not made slower."""
    counters = _work_pin_run(method, **overrides)
    assert counters.matches == 285
    assert counters.sim_evaluations <= parent_sim_evaluations


# -- the reaching keyword bounds the dot (ISSUE 23) -------------------------


@pytest.mark.parametrize(
    "method, evaluated, parent_quick, parent_dots, parent_cosines",
    [("GIFilter", 2549, 406, 2439, 109), ("IFilter", 2558, 408, 2446, 0)],
)
def test_floor_rejects_before_the_dot_and_decides_nothing_new(
    method, evaluated, parent_quick, parent_dots, parent_cosines
):
    """Work pin: against the counts recorded at the parent commit the
    keyword floor moves evaluations from the Lemma 6 dot to the bound in
    front of it — one for one — and changes nothing else."""
    counters = _work_pin_run(method)
    assert counters.matches == 285
    assert counters.queries_evaluated == evaluated
    assert counters.sim_evaluations == parent_cosines
    assert counters.aw_dot_products < parent_dots / 2
    assert (
        counters.quick_rejections + counters.aw_dot_products
        == parent_quick + parent_dots
    )


@pytest.mark.parametrize("method", ["BIRT", "IRT"])
def test_floor_is_zero_without_a_summary(method):
    """No AW table, no floor: the bound is Appendix A.1's and the
    baselines' counters are the parent commit's."""
    counters = _work_pin_run(method)
    assert (
        counters.matches,
        counters.queries_evaluated,
        counters.quick_rejections,
        counters.sim_evaluations,
        counters.sim_cache_hits,
        counters.aw_dot_products,
    ) == (285, 2558, 408, 7455, 2405, 0)


def test_floor_reads_the_first_reaching_keyword_once(monkeypatch):
    """A document reaching a 3-keyword query through two of its keywords
    is evaluated once, with the term whose posting came first: the run
    loop reads that keyword's ``(α·PS, tf)`` and no other."""
    import repro.core.engine as engine_module

    engine = DasEngine.for_method("GIFilter", k=2, block_size=4)
    engine.subscribe(DasQuery(0, ["apple", "mango", "zebra"]))
    engine.publish(doc(0, ["mango", "zebra"]))
    engine.publish(doc(1, ["zebra", "mango"]))
    assert engine.counters.queries_evaluated == 2  # warm-up: no floor read
    reached = []
    real = engine_module.keyword_bounds

    class Spy(dict):
        def __getitem__(self, term):
            reached.append(term)
            return dict.__getitem__(self, term)

    monkeypatch.setattr(
        engine_module, "keyword_bounds", lambda *args: Spy(real(*args))
    )
    engine.publish(doc(2, ["zebra", "mango", "pad"]))
    assert reached == ["mango"]
    assert engine.counters.queries_evaluated == 3


def test_overestimated_floor_fails_the_differential(monkeypatch):
    """Mutation check: a floor that forgets ``/ ‖d_n‖`` is no lower
    bound, and the oracle differential sees the matches it drops.  The
    run loop divides ``AW(t)·tf(t)`` by the norm, so scaling the ``tf``
    it reads by the norm cancels the division."""
    import repro.core.engine as engine_module

    def filter_changes():
        return _work_pin_changes(
            DasEngine.for_method("IFilter", k=4, block_size=4)
        )

    expected = _work_pin_changes(
        NaiveEngine(EngineConfig(k=4, use_blocks=False,
                                 use_group_filter=False,
                                 use_agg_weights=False))
    )
    assert filter_changes() == expected
    real = engine_module.keyword_bounds

    def no_norm(vector, ps_cache, alpha):
        return {
            term: (alpha_ps, tf * vector.norm)
            for term, (alpha_ps, tf) in real(vector, ps_cache, alpha).items()
        }

    monkeypatch.setattr(engine_module, "keyword_bounds", no_norm)
    assert filter_changes() != expected


# -- the reaching keyword's PS bounds TRel before it is paid -----------------


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` in a shim; returns the list it appends to."""
    calls = []
    real = getattr(owner, name)

    def counting(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize(
    "method, evaluated, parent_quick, parent_dots",
    [("GIFilter", 2549, 1728, 1117), ("IFilter", 2558, 1738, 1116)],
)
def test_keyword_ps_rejects_before_trel_and_decides_nothing_new(
    monkeypatch, method, evaluated, parent_quick, parent_dots
):
    """Work pin: with ``PS`` of the reaching keyword tried in front of
    ``TRel``, what is matched, evaluated, rejected by a bound and paid a
    Lemma 6 dot equals the counts recorded with the ``TRel`` bound alone;
    only ``TRel`` computations go."""
    from repro.scoring.relevance import LanguageModelScorer

    calls = _count_calls(monkeypatch, LanguageModelScorer, "trel_from_ps")
    counters = _work_pin_run(method)
    assert (
        counters.matches,
        counters.queries_evaluated,
        counters.quick_rejections,
        counters.aw_dot_products,
    ) == (285, evaluated, parent_quick, parent_dots)
    assert len(calls) < counters.queries_evaluated


def test_documents_reaching_no_query_are_not_scored(monkeypatch):
    """History replay and a document no query indexes make no ``PS``
    call; a reaching document scores only the terms whose lists it
    reaches."""
    from repro.scoring.relevance import LanguageModelScorer

    engine = make_engine()
    calls = _count_calls(monkeypatch, LanguageModelScorer, "ps")
    for i in range(4):
        engine.publish(doc(i, ["coffee", f"pad{i}"]))
    assert calls == []
    monkeypatch.undo()
    engine.subscribe(DasQuery(0, ["coffee"]))
    calls = _count_calls(monkeypatch, LanguageModelScorer, "ps")
    engine.publish(doc(4, ["tea", "milk"]))
    engine.publish_batch([doc(5, ["tea"]), doc(6, ["milk", "sugar"])])
    assert calls == []
    engine.publish(doc(7, ["coffee", "tea", "milk"]))
    assert [term for _vector, term in calls] == ["coffee"]


# -- group-check backoff (ISSUE 20) ---------------------------------------


_CHURN_TERMS = "pqrstu"
_PUBLISH = st.tuples(
    st.just("pub"),
    st.lists(st.sampled_from(_CHURN_TERMS), min_size=1, max_size=5),
)
# Three actions in five publish.
_CHURN = st.lists(
    st.one_of(
        _PUBLISH,
        _PUBLISH,
        _PUBLISH,
        st.tuples(
            st.just("sub"),
            st.sets(st.sampled_from(_CHURN_TERMS), min_size=1, max_size=2),
        ),
        st.tuples(st.just("unsub"), st.floats(0.0, 1.0, exclude_max=True)),
    ),
    min_size=10,
    max_size=80,
)


@pytest.mark.parametrize("block_size", (1, 2, 16))
@pytest.mark.parametrize("k", (1, 2, 6))
@settings(max_examples=15, deadline=None)
@given(actions=_CHURN)
def test_backoff_changes_no_decision_under_churn(k, block_size, actions):
    """Which boundaries get a group check is free to choose: under
    subscribe/unsubscribe churn, with members still warming up, GIFilter
    (checks backed off and re-engaged by their yield) emits per document
    the same changes as IFilter, BIRT, IRT and the brute-force oracle,
    and ends on the same results."""
    engines = [
        DasEngine.for_method(method, k=k, block_size=block_size)
        for method in ("GIFilter", "IFilter", "BIRT", "IRT")
    ] + [
        NaiveEngine(EngineConfig(k=k, use_blocks=False,
                                 use_group_filter=False,
                                 use_agg_weights=False)),
    ]
    live = []
    next_query = next_doc = 0
    for kind, payload in actions:
        if kind == "pub":
            document = doc(next_doc, payload)
            next_doc += 1
            emitted = [_changes(e.publish(document)) for e in engines]
            assert all(e == emitted[-1] for e in emitted), document.doc_id
        elif kind == "sub":
            for engine in engines:
                engine.subscribe(DasQuery(next_query, sorted(payload)))
            live.append(next_query)
            next_query += 1
        elif live:
            query_id = live.pop(int(payload * len(live)))
            for engine in engines:
                engine.unsubscribe(query_id)
    final = [
        {q: [d.doc_id for d in engine.results(q)] for q in live}
        for engine in engines
    ]
    assert all(f == final[-1] for f in final)


def test_block_term_ps_is_the_trel_upper_bound():
    """``TRel̃_max`` of a block is ``PS(d_n, t)`` of its own term ``t``,
    which every member holds.  Query 1, on ``kappa`` alone, lies inside
    the ``alpha`` block's id range (queries 0 and 2, strong results), and
    the document is mostly ``kappa``: Eq. 18's maximum over the terms
    still to come in that range would take the high ``PS(kappa)`` and
    keep the block, the block term's low ``PS(alpha)`` skips it.  The
    changes equal the brute-force oracle's."""
    engines = [
        DasEngine.for_method(
            "GIFilter", k=2, block_size=4, alpha=0.9, decay_base=1.002
        ),
        NaiveEngine(EngineConfig(k=2, alpha=0.9, decay_base=1.002,
                                 use_blocks=False, use_group_filter=False,
                                 use_agg_weights=False)),
    ]
    emitted = []
    for engine in engines:
        for i in range(30):
            engine.publish(doc(i, ["zeta"] * 32))
        engine.publish(doc(30, ["alpha"] * 10 + ["beta"] * 2))
        engine.publish(doc(31, ["alpha"] * 10 + ["gamma"] * 2))
        for query_id, term in enumerate(("alpha", "kappa", "alpha")):
            engine.subscribe(DasQuery(query_id, [term]))
        emitted.append(_changes(engine.publish(
            doc(32, ["alpha"] + ["kappa"] * 20 + ["zeta"] * 11)
        )))
    # Query 1's block holds a warm-up member only, so it cannot be the
    # skipped one.
    assert engines[0].counters.blocks_skipped == 1
    assert emitted[0] == emitted[1] == [(1, 32, None)]


def _paying_stream():
    """30 off-topic documents (so relevance has a low background), two
    strong results per query, then weak ``alpha`` documents with a strong
    ``omega`` document every tenth."""

    def strong(doc_id, term, flavour):
        return doc(doc_id, [term] * 10 + [flavour] * 2)

    docs = [doc(i, ["zeta"] * 32) for i in range(30)]
    docs += [
        strong(30, "alpha", "beta"),
        strong(31, "alpha", "gamma"),
        strong(32, "omega", "beta"),
        strong(33, "omega", "gamma"),
    ]
    for i in range(34, 274):
        if i % 10 == 0:
            docs.append(strong(i, "omega", f"f{i}"))
        else:
            docs.append(doc(i, ["alpha"] + ["zeta"] * 31))
    return docs


def _paying_run(always_check):
    engine = DasEngine.for_method(
        "GIFilter", k=2, block_size=4, alpha=0.9, decay_base=1.002,
    )
    for query_id in range(64):
        engine.subscribe(DasQuery(query_id, ["alpha"]))
    for query_id in range(64, 80):
        engine.subscribe(DasQuery(query_id, ["omega"]))
    changes = []
    for document in _paying_stream():
        if always_check:
            engine._check_backoff = engine._check_sitout = 0
        changes.append(_changes(engine.publish(document)))
    return engine.counters, changes


def test_backoff_keeps_the_skips_where_group_filtering_pays():
    """The paper's regime (strong filled results, weak documents): nearly
    every check skips, and the misses the ``omega`` documents cause cost
    the engine only the few boundaries after each one."""
    reference, reference_changes = _paying_run(always_check=True)
    assert reference.blocks_skipped >= 0.9 * reference.group_checks
    counters, changes = _paying_run(always_check=False)
    assert changes == reference_changes
    assert counters.group_checks_deferred > reference.group_checks_deferred
    assert counters.blocks_skipped >= 0.8 * reference.blocks_skipped


def test_backoff_stops_checking_where_nothing_can_be_skipped():
    """A third of the evaluated queries accept (k = 24 keeps many result
    sets warming up), so no block can be skipped: checks fall to a probe
    every 64th boundary and MCS summaries are built only for a check."""
    counters = _work_pin_run("GIFilter", k=24, block_size=16, queries=80)
    assert counters.matches >= 0.3 * counters.queries_evaluated
    boundaries = counters.group_checks + counters.group_checks_deferred
    assert counters.group_checks <= boundaries / 16
    assert counters.mcs_rebuilds <= counters.group_checks
