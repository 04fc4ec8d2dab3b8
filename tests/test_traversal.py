"""Tests pinning down Algorithm 2's traversal behaviour."""

from __future__ import annotations

import pytest

from repro.core.engine import DasEngine
from repro.core.query import DasQuery
from repro.stream.document import Document


def doc(i, tokens, t=None):
    return Document.from_tokens(i, tokens, float(i) if t is None else t)


def test_multi_term_query_evaluated_once_per_document():
    """A query in several of the document's postings lists is evaluated
    exactly once (the DAAT dedup)."""
    engine = DasEngine.for_method("GIFilter", k=2, block_size=4)
    engine.subscribe(DasQuery(0, ["alpha", "beta", "gamma"]))
    engine.publish(doc(0, ["alpha", "beta", "gamma"]))
    assert engine.counters.queries_evaluated == 1
    # but the postings cursor still visits all three lists
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
