"""Tests for postings blocks and the query inverted file."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import PostingsBlock
from repro.core.engine import DasEngine
from repro.core.inverted_file import QueryInvertedFile
from repro.core.query import DasQuery
from repro.core.result_set import QueryResultSet
from repro.stream.document import Document


def filled_result_set(k, docs, trel=0.2):
    rs = QueryResultSet(k, track_aggregated_weights=False)
    for d in docs:
        rs.admit(d, trel)
    return rs


def doc(i, tokens):
    return Document.from_tokens(i, tokens, float(i))


# -- PostingsBlock ---------------------------------------------------------------


def test_block_append_keeps_order():
    block = PostingsBlock()
    block.append(1)
    block.append(5)
    assert block.query_ids == [1, 5]
    assert len(block) == 2
    with pytest.raises(ValueError):
        block.append(3)


def test_block_append_invalidates_mcs():
    block = PostingsBlock()
    block.append(1)
    block.mcs_sets = []
    block.mcs_initial_count = 0
    block.append(2)
    assert block.mcs_sets is None


def test_block_remove():
    block = PostingsBlock()
    for qid in (1, 2, 3):
        block.append(qid)
    assert block.remove(2)
    assert block.query_ids == [1, 3]
    assert not block.remove(9)


def test_refresh_metadata_all_filled():
    block = PostingsBlock()
    block.append(0)
    block.append(1)
    result_sets = {
        0: filled_result_set(2, [doc(0, ["w"]), doc(1, ["w"])], trel=0.4),
        1: filled_result_set(2, [doc(2, ["w"]), doc(3, ["x"])], trel=0.1),
    }
    block.refresh_metadata(result_sets)
    assert not block.meta_dirty
    assert not block.has_unfilled
    # No warm-up member: the one shared empty tuple, not a fresh list.
    assert block.unfilled_ids == ()
    assert block.unfilled_ids is PostingsBlock().unfilled_ids
    assert block.trel_max_de == pytest.approx(0.4)
    assert block.earliest_de == 0.0
    expected_min = min(
        result_sets[0].static_dr_oldest(0.3), result_sets[1].static_dr_oldest(0.3)
    )
    assert block.dtrel_min == pytest.approx(expected_min)


def test_refresh_metadata_with_unfilled_member():
    block = PostingsBlock()
    block.append(0)
    block.append(1)
    result_sets = {
        0: filled_result_set(2, [doc(0, ["w"]), doc(1, ["w"])]),
        1: filled_result_set(2, [doc(2, ["w"])]),  # only 1 of 2 -> unfilled
    }
    block.refresh_metadata(result_sets)
    assert block.has_unfilled
    assert block.unfilled_ids == [1]
    # summaries still cover the filled member
    assert block.dtrel_min == pytest.approx(result_sets[0].static_dr_oldest(0.3))


def test_refresh_metadata_nothing_filled():
    block = PostingsBlock()
    block.append(0)
    result_sets = {0: filled_result_set(2, [doc(0, ["w"])])}
    block.refresh_metadata(result_sets)
    assert block.dtrel_min == float("-inf")


def test_rebuild_and_invalidate_mcs():
    block = PostingsBlock()
    block.append(0)
    block.append(1)
    shared = doc(1, ["w"])
    result_sets = {
        0: filled_result_set(2, [doc(0, ["w"]), shared]),
        1: filled_result_set(2, [doc(0, ["w"]), shared]),
    }
    # Admit shared as the newer doc of both; universe = {shared} (oldest
    # excluded).
    block.rebuild_mcs("w", result_sets)
    assert block.mcs_sets and block.mcs_initial_count == 1
    assert block.needs_mcs_rebuild(0.5) is False
    dropped = block.invalidate_mcs_with(frozenset({shared.doc_id}))
    assert dropped == 1
    assert block.mcs_sets == []
    assert block.needs_mcs_rebuild(0.5) is True  # 0/1 < 0.5


def test_needs_rebuild_when_unbuilt():
    assert PostingsBlock().needs_mcs_rebuild(0.5)


def test_invalidate_noop_cases():
    block = PostingsBlock()
    assert block.invalidate_mcs_with(frozenset({1})) == 0
    block.mcs_sets = []
    assert block.invalidate_mcs_with(frozenset()) == 0


# -- postings lists: a term's list of blocks ------------------------------------


def test_postings_list_blocks_split_at_capacity():
    index = QueryInvertedFile(block_size=2)
    for qid in range(5):
        index.insert(DasQuery(qid, ["w"]))
    blocks = index.list_for("w")
    # The list *is* the term's postings: no wrapper around the blocks.
    assert type(blocks) is list
    assert [len(b) for b in blocks] == [2, 2, 1]
    assert [b.query_ids for b in blocks] == [[0, 1], [2, 3], [4]]
    assert index.block_count == 3 and index.posting_count == 5
    assert index.list_for("x") is None


def test_postings_list_unbounded_single_block():
    index = QueryInvertedFile(block_size=None)
    for qid in range(100):
        index.insert(DasQuery(qid, ["w"]))
    (block,) = index.list_for("w")
    assert block.query_ids == list(range(100))
    assert index.block_count == 1 and index.posting_count == 100


# -- QueryInvertedFile ----------------------------------------------------------------


def test_insert_returns_touched_blocks():
    index = QueryInvertedFile(block_size=4)
    query = DasQuery(0, ["b", "a"])
    touched = index.insert(query)
    # One block per ``query.terms`` entry, in that (sorted) order.
    assert type(touched) is tuple and len(touched) == len(query.terms) == 2
    for term, block in zip(query.terms, touched):
        assert block is index.list_for(term)[-1]
        assert block.query_ids == [0]
    assert index.term_count == 2
    assert index.posting_count == 2


def test_insert_and_find():
    index = QueryInvertedFile(block_size=2)
    for qid in range(4):
        touched = index.insert(DasQuery(qid, ["x"]))
    assert type(touched) is tuple and len(touched) == 1
    (block,) = touched
    assert block.query_ids == [2, 3]
    assert block is index.list_for("x")[-1]
    assert index.block_count == 2


def test_remove_query():
    index = QueryInvertedFile(block_size=4)
    q = DasQuery(0, ["a", "b"])
    touched = index.insert(q)
    index.remove(q, touched)
    assert index.term_count == 0
    assert index.posting_count == 0
    assert index.block_count == 0
    index.remove(q, touched)  # idempotent
    assert index.posting_count == 0 and index.block_count == 0


def test_postings_list_remove_drops_empty_blocks():
    index = QueryInvertedFile(block_size=1)
    queries = {qid: DasQuery(qid, ["w"]) for qid in (1, 2, 3)}
    touched = {qid: index.insert(q) for qid, q in queries.items()}
    index.remove(queries[2], touched[2])
    assert [block.query_ids for block in index.list_for("w")] == [[1], [3]]
    assert index.block_count == 2 and index.posting_count == 2
    index.remove(queries[2], touched[2])
    assert index.block_count == 2 and index.posting_count == 2


def test_remove_from_a_many_block_list():
    index = QueryInvertedFile(block_size=4)
    ids = list(range(0, 400, 2))  # 200 even ids, 50 blocks of 4
    queries = {qid: DasQuery(qid, ["w", f"own{qid}"]) for qid in ids}
    touched = {qid: index.insert(queries[qid]) for qid in ids}
    # Blocks align with the sorted ``query.terms``: ("own…", "w").
    assert all(queries[qid].terms == (f"own{qid}", "w") for qid in ids)
    w_block = {qid: touched[qid][1] for qid in ids}
    assert all(w_block[qid] in index.list_for("w") for qid in ids)
    plist = index.list_for("w")
    assert len(plist) == 50

    def totals_agree():
        blocks = [block for _term, block in index.items()]
        return (
            index.block_count == len(blocks)
            and index.posting_count == sum(len(b) for b in blocks)
        )

    # First, middle and last id of the list: each one's block shrinks and
    # stays; its own one-posting list goes.
    for qid in (0, 198, 398):
        block = w_block[qid]
        index.remove(queries[qid], touched[qid])
        assert qid not in block.query_ids and block in plist
        assert index.list_for(f"own{qid}") is None
        assert totals_agree()
    assert len(plist) == 50
    assert index.posting_count == 2 * (200 - 3)
    # Emptying a block in the middle drops it — and only it.
    middle = w_block[200]
    for qid in list(middle.query_ids):
        index.remove(queries[qid], touched[qid])
    assert len(plist) == 49 and middle not in plist
    assert totals_agree()
    assert sum(len(block) for block in plist) == 200 - 3 - 4
    survivors = [q for block in plist for q in block.query_ids]
    assert survivors == sorted(survivors)


def test_invalid_block_size():
    with pytest.raises(ValueError):
        QueryInvertedFile(block_size=0)


def test_mcs_document_count():
    index = QueryInvertedFile(block_size=4)
    index.insert(DasQuery(0, ["a"]))
    assert index.mcs_document_count() == 0


# -- engine memberships ---------------------------------------------------------------

_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("publish"),
            st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4),
        ),
        st.tuples(
            st.just("subscribe"),
            st.sets(st.sampled_from("abcdef"), min_size=1, max_size=3),
        ),
        st.tuples(st.just("unsubscribe"), st.integers(0, 30)),
    ),
    max_size=40,
)


def _postings_by_term(index):
    return {
        term: [qid for block in index.list_for(term) for qid in block.query_ids]
        for term in index.terms()
    }


def _check_memberships(engine):
    index = engine._index
    assert set(engine._memberships) == set(engine._queries)
    for query_id, blocks in engine._memberships.items():
        query = engine._queries[query_id]
        assert type(blocks) is tuple and len(blocks) == len(query.terms)
        for term, block in zip(query.terms, blocks):
            assert any(block is b for b in index.list_for(term))
            assert query_id in block.query_ids
    walked = [block for _term, block in index.items()]
    assert index.block_count == len(walked)
    assert index.posting_count == sum(len(block) for block in walked)
    assert all(walked), "an empty block outlived its last posting"
    # Every term's postings, in order, are a fresh index's over the live
    # queries (block boundaries may differ: removals leave gaps).
    fresh = QueryInvertedFile(index.block_size)
    for query_id in sorted(engine._queries):
        fresh.insert(engine._queries[query_id])
    assert _postings_by_term(index) == _postings_by_term(fresh)
    assert index.posting_count == fresh.posting_count
    assert index.term_count == fresh.term_count


@settings(max_examples=60, deadline=None)
@given(steps=_STEPS)
def test_memberships_follow_subscribe_unsubscribe_publish(steps):
    """After every step a query's memberships are the tuple of its blocks
    aligned with ``query.terms``, each one in its term's list and holding
    the query; unsubscribing everything leaves a fresh, empty index."""
    engine = DasEngine.for_method("GIFilter", k=2, block_size=2)
    next_doc, next_query = 0, 0
    for action, arg in steps:
        if action == "publish":
            engine.publish(Document.from_tokens(next_doc, arg, float(next_doc)))
            next_doc += 1
        elif action == "subscribe":
            engine.subscribe(DasQuery(next_query, sorted(arg)))
            next_query += 1
        elif engine._queries:
            live = sorted(engine._queries)
            engine.unsubscribe(live[arg % len(live)])
        _check_memberships(engine)
    for query_id in list(engine._queries):
        engine.unsubscribe(query_id)
        _check_memberships(engine)
    empty = QueryInvertedFile(engine._index.block_size)
    assert (
        engine._index.term_count,
        engine._index.posting_count,
        engine._index.block_count,
    ) == (empty.term_count, empty.posting_count, empty.block_count) == (0, 0, 0)
    assert engine._memberships == {}
