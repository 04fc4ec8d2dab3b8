"""Tests for evolving collection statistics."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text.collection_stats import CollectionStatistics
from repro.text.vectors import TermVector


def test_empty_statistics():
    stats = CollectionStatistics()
    assert stats.total_tokens == 0
    assert stats.total_documents == 0
    assert stats.distinct_terms == 0
    assert stats.term_count("x") == 0
    assert stats.probability("x") == pytest.approx(1.0)


def test_add_accumulates_counts():
    stats = CollectionStatistics()
    stats.add(TermVector.from_tokens(["a", "b", "a"]))
    stats.add(TermVector.from_tokens(["b", "c"]))
    assert stats.total_tokens == 5
    assert stats.total_documents == 2
    assert stats.term_count("a") == 2
    assert stats.term_count("b") == 2
    assert stats.term_count("c") == 1
    assert stats.distinct_terms == 3


def test_probability_observed_term():
    stats = CollectionStatistics()
    stats.add(TermVector.from_tokens(["a", "a", "b", "c"]))
    assert stats.probability("a") == pytest.approx(0.5)


def test_probability_unseen_floor():
    stats = CollectionStatistics()
    stats.add(TermVector.from_tokens(["a"] * 9))
    assert stats.probability("zz") == pytest.approx(1.0 / 10)


def test_snapshot_is_independent():
    stats = CollectionStatistics()
    stats.add(TermVector.from_tokens(["a"]))
    frozen = stats.snapshot()
    stats.add(TermVector.from_tokens(["a", "a"]))
    assert frozen.term_count("a") == 1
    assert stats.term_count("a") == 3


@given(
    st.lists(
        st.lists(st.sampled_from("abcde"), min_size=0, max_size=8),
        min_size=0,
        max_size=10,
    )
)
def test_probabilities_sum_to_one_over_observed_terms(token_lists):
    stats = CollectionStatistics()
    for tokens in token_lists:
        stats.add(TermVector.from_tokens(tokens))
    if stats.total_tokens:
        total = sum(stats.probability(term) for term in "abcde"
                    if stats.term_count(term) > 0)
        assert total == pytest.approx(1.0)


@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=10))
def test_token_count_matches_vector_length(tokens):
    stats = CollectionStatistics()
    vector = TermVector.from_tokens(tokens)
    stats.add(vector)
    assert stats.total_tokens == vector.length == len(tokens)
