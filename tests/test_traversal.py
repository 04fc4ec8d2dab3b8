"""Tests pinning down Algorithm 2's traversal behaviour."""

from __future__ import annotations

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_module
from repro.config import METHOD_CONFIGS
from repro.core.engine import MAX_CHECK_BACKOFF, DasEngine
from repro.core.query import DasQuery
from repro.stream.document import Document


def doc(i, tokens, t=None):
    return Document.from_tokens(i, tokens, float(i) if t is None else t)


# -- the heap merge as a reference traversal ---------------------------------


def _cursor_active_ps(block, cursors, lists, ps_cache):
    """TRel̃_max's active terms read off the cursors: every term whose
    cursor has not passed ``block`` yet."""
    active = []
    for term, (block_index, offset) in cursors.items():
        blocks = lists[term].blocks
        if (
            block_index < len(blocks)
            and blocks[block_index].query_ids[offset] <= block.max_id
        ):
            active.append(ps_cache[term])
    return active


class HeapEngine(DasEngine):
    """Algorithm 2 as a k-way heap merge of one postings cursor per term,
    popping one posting at a time.  The engine's sorted traversal must
    evaluate, check and skip exactly as this does."""

    def _publish_core(self, document, lists_memo):
        sim_cache = self._sim_cache
        sim_cache.clear()
        if document.created_at > self._clock.now:
            self._clock.advance_to(document.created_at)
        self._stats.add(document.vector)
        self._store.add(document)
        self.counters.docs_published += 1
        notifications = []
        vector = document.vector
        if not vector:
            return notifications
        now = self._clock.now
        ps_cache = {term: self._scorer.ps(vector, term) for term in vector.terms()}
        lists = {}
        for term in vector.terms():
            postings = self._index.list_for(term)
            if postings is not None and postings.blocks:
                lists[term] = postings
        if not lists:
            return notifications
        cursors = {term: (0, 0) for term in lists}
        evaluated = set()
        heap = [
            (postings.blocks[0].query_ids[0], term)
            for term, postings in lists.items()
        ]
        heapq.heapify(heap)
        while heap:
            _query_id, term = heapq.heappop(heap)
            block_index, offset = cursors[term]
            blocks = lists[term].blocks
            block = blocks[block_index]
            skipped = False
            if offset == 0 and self._config.use_blocks:
                if self._check_sitout:
                    self._check_sitout -= 1
                    self.counters.group_checks_deferred += 1
                else:
                    skipped = self._check_boundary(
                        term, block, document,
                        _cursor_active_ps(block, cursors, lists, ps_cache),
                        now,
                    )
                if skipped:
                    for query_id in block.unfilled_ids:
                        if query_id not in evaluated:
                            evaluated.add(query_id)
                            self._evaluate_query(
                                query_id, term, document, ps_cache, now,
                                notifications,
                            )
                    block_index += 1
                    offset = 0
            if not skipped:
                if offset == 0:
                    self.counters.blocks_visited += 1
                query_id = block.query_ids[offset]
                self.counters.postings_visited += 1
                if query_id not in evaluated:
                    evaluated.add(query_id)
                    self._evaluate_query(
                        query_id, term, document, ps_cache, now, notifications
                    )
                offset += 1
                if offset >= len(block.query_ids):
                    block_index += 1
                    offset = 0
            cursors[term] = (block_index, offset)
            if block_index < len(blocks):
                heapq.heappush(
                    heap, (blocks[block_index].query_ids[offset], term)
                )
        self.counters.sim_cache_hits += sim_cache.lookups - len(sim_cache)
        return notifications


def _log(notifications):
    """Notifications in emission order (not sorted: the order is part of
    what the traversal must reproduce)."""
    return [
        (n.query_id, n.document.doc_id, n.replaced and n.replaced.doc_id)
        for n in notifications
    ]


def _assert_same_traversal(method, k, block_size, actions, **overrides):
    """Drive ``actions`` through the engine and the heap reference.

    A publish is ``("pub", (tokens, schedule))``; a non-None ``schedule``
    is the ``(_check_backoff, _check_sitout)`` pair both engines are
    forced to first.  ``block_size=None`` keeps the method's default
    (one block per list at these sizes)."""
    if block_size is not None:
        overrides["block_size"] = block_size
    engines = [
        DasEngine.for_method(method, k=k, **overrides),
        HeapEngine.for_method(method, k=k, **overrides),
    ]
    live = []
    next_query = next_doc = 0
    for kind, payload in actions:
        if kind == "pub":
            tokens, schedule = payload
            document = doc(next_doc, tokens)
            next_doc += 1
            for engine in engines:
                if schedule is not None:
                    engine._check_backoff, engine._check_sitout = schedule
            emitted = [_log(engine.publish(document)) for engine in engines]
            assert emitted[0] == emitted[1], document.doc_id
            counters = [engine.counters.as_dict() for engine in engines]
            assert counters[0] == counters[1], document.doc_id
            backoff = [
                (engine._check_backoff, engine._check_sitout)
                for engine in engines
            ]
            assert backoff[0] == backoff[1], document.doc_id
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
    assert final[0] == final[1]
    return engines[0].counters


_TERMS = "pqrstu"
_SCHEDULE = st.none() | st.tuples(
    st.integers(0, MAX_CHECK_BACKOFF), st.integers(0, 6)
)
_PUBLISH = st.tuples(
    st.just("pub"),
    st.tuples(
        st.lists(st.sampled_from(_TERMS), min_size=1, max_size=8), _SCHEDULE
    ),
)
_SUBSCRIBE = st.tuples(
    st.just("sub"), st.sets(st.sampled_from(_TERMS), min_size=1, max_size=3)
)
_CHURN = st.lists(
    st.one_of(
        _PUBLISH,
        _PUBLISH,
        _PUBLISH,
        _SUBSCRIBE,
        _SUBSCRIBE,
        st.tuples(st.just("unsub"), st.floats(0.0, 1.0, exclude_max=True)),
    ),
    min_size=10,
    max_size=60,
)


@pytest.mark.parametrize("method", sorted(METHOD_CONFIGS))
@pytest.mark.parametrize("block_size", (1, 2, 16, None))
@settings(max_examples=10, deadline=None)
@given(k=st.sampled_from((1, 2, 6)), actions=_CHURN)
def test_sorted_traversal_is_the_heap_merge(method, block_size, k, actions):
    """Under subscribe/unsubscribe churn and forced check schedules, the
    sorted traversal emits the heap merge's notifications in the same
    order, meters the same counters and leaves the same backoff state
    after every publish."""
    _assert_same_traversal(method, k, block_size, actions)


def _paying_actions(seed):
    """Strong results, then weak documents (the regime where group checks
    skip), some of them reaching both keywords' lists, and a random check
    schedule forced before each publish."""
    rng = random.Random(seed)
    actions = [("sub", {"alpha" if i % 4 else "omega"}) for i in range(80)]
    stream = [["zeta"] * 32] * 30 + [
        ["alpha"] * 10 + ["beta"] * 2,
        ["alpha"] * 10 + ["gamma"] * 2,
        ["omega"] * 10 + ["beta"] * 2,
        ["omega"] * 10 + ["gamma"] * 2,
    ]
    for i in range(34, 154):
        if i % 10 == 0:
            stream.append(["omega"] * 10 + [f"f{i}"] * 2)
        elif i % 7 == 0:
            stream.append(["alpha", "omega"] + ["zeta"] * 30)
        else:
            stream.append(["alpha"] + ["zeta"] * 31)
    for tokens in stream:
        schedule = (rng.randrange(MAX_CHECK_BACKOFF + 1), rng.randrange(4))
        actions.append(("pub", (tokens, schedule)))
    return actions


@pytest.mark.parametrize("seed", (0, 1))
def test_sorted_traversal_is_the_heap_merge_where_checks_skip(seed):
    """The same differential on a stream where engaged checks skip: runs
    of sat-out, engaged-and-missed and skipping boundaries all occur."""
    counters = _assert_same_traversal(
        "GIFilter", 2, 4, _paying_actions(seed), alpha=0.9, decay_base=1.002
    )
    assert counters.blocks_skipped > 0
    assert counters.group_checks > counters.blocks_skipped
    assert counters.group_checks_deferred > 0


_TIE_ACTIONS = [
    ("sub", {"mango", "zebra"}),
    ("pub", (["mango", "a"], None)),
    ("pub", (["mango", "b"], None)),
    ("pub", (["mango", "mango", "mango", "zebra"], None)),
]


class _ReversedTerm(str):
    """A term whose ``<`` (all that sorting and ``bisect`` use) is
    reversed."""

    def __lt__(self, other):
        return str.__gt__(self, other)


def test_reverse_term_ties_fail_the_differential(monkeypatch):
    """Mutation check: a query reached through two keywords is evaluated
    with the first of them in term order, whose keyword floor decides it;
    breaking ties by reverse term order reaches it through the other
    keyword, whose floor is 0, and the metered work differs."""
    _assert_same_traversal("IFilter", 2, 4, _TIE_ACTIONS, alpha=0.1)
    real_repeat = engine_module.repeat
    monkeypatch.setattr(
        engine_module, "repeat", lambda term: real_repeat(_ReversedTerm(term))
    )
    with pytest.raises(AssertionError):
        _assert_same_traversal("IFilter", 2, 4, _TIE_ACTIONS, alpha=0.1)


def test_multi_term_query_evaluated_once_per_document():
    """A query in several of the document's postings lists is evaluated
    exactly once (the DAAT dedup)."""
    engine = DasEngine.for_method("GIFilter", k=2, block_size=4)
    engine.subscribe(DasQuery(0, ["alpha", "beta", "gamma"]))
    engine.publish(doc(0, ["alpha", "beta", "gamma"]))
    assert engine.counters.queries_evaluated == 1
    # but each of its three postings is still visited
    assert engine.counters.postings_visited == 3


def test_each_matching_query_evaluated_once():
    engine = DasEngine.for_method("GIFilter", k=2, block_size=4)
    engine.subscribe(DasQuery(0, ["alpha"]))
    engine.subscribe(DasQuery(1, ["beta"]))
    engine.subscribe(DasQuery(2, ["alpha", "beta"]))
    engine.publish(doc(0, ["alpha", "beta"]))
    assert engine.counters.queries_evaluated == 3


def test_non_indexed_terms_are_skipped():
    engine = DasEngine.for_method("GIFilter", k=2, block_size=4)
    engine.subscribe(DasQuery(0, ["alpha"]))
    engine.publish(doc(0, ["unrelated", "terms", "only"]))
    assert engine.counters.queries_evaluated == 0
    assert engine.counters.postings_visited == 0


def test_skipped_block_still_serves_unfilled_members():
    """When a block is group-skipped, its warm-up members must still see
    the document (they admit everything)."""
    engine = DasEngine.for_method("GIFilter", k=3, block_size=8)
    # Fill two queries completely, leave one unfilled in the same block.
    for i in range(6):
        engine.publish(doc(i, ["shared", f"pad{i}"]))
    engine.subscribe(DasQuery(0, ["shared"]))
    engine.subscribe(DasQuery(1, ["shared"]))
    engine.subscribe(DasQuery(2, ["shared", "neverseen"]))
    # Query 2 initialises from 'shared' matches too, so make a query that
    # genuinely stays unfilled: one on a brand-new term.
    engine.subscribe(DasQuery(3, ["brandnew"]))
    notes = engine.publish(doc(50, ["brandnew"], t=50.0))
    assert [n.query_id for n in notes] == [3]
    assert [d.doc_id for d in engine.results(3)] == [50]


def test_blocks_visited_and_skipped_partition_traversal():
    engine = DasEngine.for_method("GIFilter", k=2, block_size=2)
    for i in range(8):
        engine.publish(doc(i, ["shared", f"p{i}"]))
    for qid in range(6):
        engine.subscribe(DasQuery(qid, ["shared"]))
    before = engine.counters.snapshot()
    engine.publish(doc(100, ["shared"], t=100.0))
    delta = engine.counters.delta(before)
    # The 'shared' list has 3 blocks; every block is either visited or
    # skipped (never both, never neither).
    assert delta.blocks_visited + delta.blocks_skipped == 3


def test_irt_traversal_never_skips():
    engine = DasEngine.for_method("IRT", k=2)
    for i in range(5):
        engine.publish(doc(i, ["shared"]))
    for qid in range(4):
        engine.subscribe(DasQuery(qid, ["shared"]))
    engine.publish(doc(50, ["shared"], t=50.0))
    assert engine.counters.blocks_skipped == 0
    assert engine.counters.group_checks == 0


def test_group_checks_counted_for_blocked_methods():
    engine = DasEngine.for_method("BIRT", k=2, block_size=2)
    for i in range(5):
        engine.publish(doc(i, ["shared"]))
    for qid in range(4):
        engine.subscribe(DasQuery(qid, ["shared"]))
    engine.publish(doc(50, ["shared"], t=50.0))
    assert engine.counters.group_checks >= 1


def test_quick_rejection_counter_fires():
    """A barely-relevant document against a strong result set triggers
    the Appendix A.1 quick bound."""
    engine = DasEngine.for_method("IRT", k=2, alpha=1.0)
    # High-relevance results: repeated keyword, short docs.
    engine.publish(doc(0, ["kw", "kw", "kw"]))
    engine.publish(doc(1, ["kw", "kw", "kw"]))
    engine.subscribe(DasQuery(0, ["kw"]))
    # Low-relevance candidate: keyword buried in a long document.
    engine.publish(doc(2, ["kw"] + [f"f{i}" for i in range(30)], t=2.0))
    assert engine.counters.quick_rejections == 1
    assert engine.counters.matches == 0


def test_keyword_floor_rejects_before_the_dot():
    """Sibling of the above where relevance is no help: the candidate is
    the most relevant document yet, but the reaching keyword's AW weight
    already says it resembles the result too much — rejected by the
    bound, no Lemma 6 dot paid (ISSUE 23).  Without a summary (IRT) the
    floor is 0.0 and the same rejection takes the k-1 cosines."""
    outcomes = {}
    for method in ("IFilter", "IRT"):
        engine = DasEngine.for_method(method, k=3, alpha=0.1)
        for i, pad in enumerate("abc"):
            engine.publish(doc(i, ["kw", pad]))
        engine.subscribe(DasQuery(0, ["kw"]))
        before = engine.counters.snapshot()
        engine.publish(doc(3, ["kw", "kw", "kw"], t=3.0))
        outcomes[method] = engine.counters.delta(before)
    assert outcomes["IFilter"].quick_rejections == 1
    assert outcomes["IFilter"].aw_dot_products == 0
    assert outcomes["IFilter"].sim_evaluations == 0
    assert outcomes["IRT"].quick_rejections == 0
    assert outcomes["IRT"].sim_evaluations == 2
    assert outcomes["IFilter"].matches == outcomes["IRT"].matches == 0
