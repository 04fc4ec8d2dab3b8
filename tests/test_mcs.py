"""Tests for minimal covering sets and GreedyMcsGen (Algorithm 1).

Includes the paper's Example 1 / Table 2 instance as a fixture.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agg_weights import MemoryBudget
from repro.core.mcs import (
    BlockUniverse,
    CoverSet,
    build_universe,
    greedy_mcs_gen,
    verify_cover,
)
from repro.core.result_set import QueryResultSet
from repro.stream.document import Document


def make_universe(coverage):
    """Universe from a {doc_id: {query ids}} mapping; docs contain 'w'."""
    universe = BlockUniverse("w")
    for doc_id, holders in coverage.items():
        document = Document.from_tokens(doc_id, ["w"], float(doc_id))
        universe.documents[doc_id] = document
        universe.coverage[doc_id] = set(holders)
    return universe


#: Table 2 of the paper: rows = documents d1..d9, columns = queries q0..q7.
PAPER_TABLE_2 = {
    1: {0, 1, 2, 3, 4, 5, 6, 7},
    2: {0, 3, 4},
    3: {2, 3, 5, 7},
    4: {0, 1, 2, 3, 4, 6},
    5: {3, 5, 6, 7},
    6: {0, 1, 4},
    7: {0, 1, 2, 5, 7},
    8: {0, 4, 5, 6},
    9: {1, 2, 6, 7},
}
PAPER_QUERIES = list(range(8))


def test_example1_d1_alone_is_mcs():
    universe = make_universe(PAPER_TABLE_2)
    cover = CoverSet([universe.documents[1]])
    assert verify_cover(cover, universe.coverage, set(PAPER_QUERIES))


def test_example1_d4_d5_is_mcs():
    universe = make_universe(PAPER_TABLE_2)
    cover = CoverSet([universe.documents[4], universe.documents[5]])
    assert verify_cover(cover, universe.coverage, set(PAPER_QUERIES))


def test_example1_d6_d7_is_not_covering():
    universe = make_universe(PAPER_TABLE_2)
    cover = CoverSet([universe.documents[6], universe.documents[7]])
    # q3 holds neither d6 nor d7.
    assert not verify_cover(cover, universe.coverage, set(PAPER_QUERIES))


def test_greedy_on_paper_example_produces_disjoint_covers():
    universe = make_universe(PAPER_TABLE_2)
    covers = greedy_mcs_gen(PAPER_QUERIES, universe)
    assert covers, "the paper instance admits at least one MCS"
    seen = set()
    for cover in covers:
        assert verify_cover(cover, universe.coverage, set(PAPER_QUERIES))
        assert seen.isdisjoint(cover.doc_ids)
        seen |= cover.doc_ids
    # d1 covers everything alone, so at least 2 disjoint covers exist
    # ({d1} and {d4, d5}).
    assert len(covers) >= 2


def test_greedy_covers_are_minimal():
    universe = make_universe(PAPER_TABLE_2)
    for cover in greedy_mcs_gen(PAPER_QUERIES, universe):
        for doc_id in cover.doc_ids:
            reduced = [d for d in cover if d.doc_id != doc_id]
            if reduced:
                assert not verify_cover(
                    CoverSet(reduced), universe.coverage, set(PAPER_QUERIES)
                ), "a proper subset still covers: not minimal"


def test_greedy_empty_universe():
    universe = make_universe({})
    assert greedy_mcs_gen([0, 1], universe) == []


def test_greedy_no_queries():
    universe = make_universe({1: {0}})
    assert greedy_mcs_gen([], universe) == []


def test_greedy_uncoverable_query_yields_no_cover():
    # q2 holds no universe document at all.
    universe = make_universe({1: {0}, 2: {1}})
    assert greedy_mcs_gen([0, 1, 2], universe) == []


def test_greedy_stops_when_universe_exhausted_mid_cover():
    # One cover is possible; the second attempt runs out of documents.
    universe = make_universe({1: {0, 1}, 2: {0}})
    covers = greedy_mcs_gen([0, 1], universe)
    assert len(covers) == 1
    assert covers[0].doc_ids == {1}


coverage_strategy = st.dictionaries(
    keys=st.integers(min_value=0, max_value=12),
    values=st.sets(st.integers(min_value=0, max_value=5), min_size=1, max_size=6),
    min_size=0,
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(coverage_strategy, st.sets(st.integers(0, 5), min_size=1, max_size=6))
def test_greedy_invariants(coverage, query_ids):
    """Every emitted cover (a) covers all queries, (b) is disjoint from
    the others, (c) is minimal."""
    universe = make_universe(coverage)
    queries = sorted(query_ids)
    covers = greedy_mcs_gen(queries, universe)
    seen = set()
    for cover in covers:
        assert verify_cover(cover, universe.coverage, set(queries))
        assert seen.isdisjoint(cover.doc_ids)
        seen |= cover.doc_ids
        for doc_id in cover.doc_ids:
            reduced = [d for d in cover if d.doc_id != doc_id]
            if reduced:
                assert not verify_cover(
                    CoverSet(reduced), universe.coverage, set(queries)
                )


def test_build_universe_excludes_oldest_and_foreign_terms():
    result_sets = {}
    rs = QueryResultSet(k=3, track_aggregated_weights=False)
    docs = [
        Document.from_tokens(0, ["w", "x"], 0.0),   # oldest -> excluded
        Document.from_tokens(1, ["w"], 1.0),
        Document.from_tokens(2, ["y"], 2.0),        # lacks w -> excluded
    ]
    for d in docs:
        rs.admit(d, 0.1)
    result_sets[0] = rs
    universe = build_universe("w", [0], result_sets)
    assert set(universe.documents) == {1}
    assert universe.coverage[1] == {0}
