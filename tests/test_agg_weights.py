"""Tests for aggregated term weights (Definition 7, Lemma 6) and Φ_max."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import UNLIMITED
from repro.core.agg_weights import (
    _ZERO_TOLERANCE,
    AggregatedTermWeights,
    MemoryBudget,
)
from repro.text.vectors import TermVector, cosine_similarity

tokens_strategy = st.lists(st.sampled_from("abcde"), min_size=1, max_size=8)


def test_add_accumulates_unit_weights():
    aw = AggregatedTermWeights()
    aw.add_document(TermVector({"a": 3, "b": 4}))  # norm 5
    assert aw.weight("a") == pytest.approx(0.6)
    assert aw.weight("b") == pytest.approx(0.8)
    assert aw.weight("c") == 0.0
    assert aw.entry_count == 2


def test_remove_document_restores_state():
    aw = AggregatedTermWeights()
    first = TermVector({"a": 1, "b": 1})
    second = TermVector({"b": 2})
    aw.add_document(first)
    aw.add_document(second)
    aw.remove_document(second)
    assert aw.weight("b") == pytest.approx(first.unit_weight("b"))
    aw.remove_document(first)
    assert aw.entry_count == 0


def test_empty_vector_is_noop():
    aw = AggregatedTermWeights()
    aw.add_document(TermVector({}))
    aw.remove_document(TermVector({}))
    assert aw.entry_count == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(tokens_strategy, min_size=1, max_size=6), tokens_strategy)
def test_lemma6_similarity_sum(token_lists, new_tokens):
    """AW dot product equals the sum of cosines over the set (Lemma 6)."""
    documents = [TermVector.from_tokens(tokens) for tokens in token_lists]
    new_vector = TermVector.from_tokens(new_tokens)
    aw = AggregatedTermWeights()
    for vector in documents:
        aw.add_document(vector)
    direct = sum(cosine_similarity(vector, new_vector) for vector in documents)
    assert aw.similarity_sum(new_vector) == pytest.approx(direct, abs=1e-9)


def test_similarity_sum_empty_cases():
    aw = AggregatedTermWeights()
    assert aw.similarity_sum(TermVector({"a": 1})) == 0.0
    aw.add_document(TermVector({"a": 1}))
    assert aw.similarity_sum(TermVector({})) == 0.0


def _reference_add(weights, vector):
    """The table's add before entries shared the document's floats."""
    norm = vector.norm
    if norm == 0.0:
        return
    for term, count in vector.items():
        weights[term] = weights.get(term, 0.0) + count / norm


def _reference_remove(weights, vector):
    norm = vector.norm
    if norm == 0.0:
        return
    for term, count in vector.items():
        remaining = weights.get(term, 0.0) - count / norm
        if abs(remaining) <= _ZERO_TOLERANCE:
            weights.pop(term, None)
        else:
            weights[term] = remaining


tf_strategy = st.dictionaries(st.sampled_from("abcdef"), st.integers(0, 4), max_size=5)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(tf_strategy, min_size=1, max_size=8),
    st.lists(st.tuples(st.booleans(), st.integers(0, 7)), max_size=40),
)
def test_shared_units_leave_every_weight_bit_identical(tfs, ops):
    """Add/remove sequences give the same floats (``==``) in the same key
    order as ``get(term, 0.0) + count / norm``; an entry written last by
    the add that created it is that document's own ``units`` float."""
    vectors = [TermVector(tf) for tf in tfs]
    aw = AggregatedTermWeights()
    reference = {}
    resident = []
    owner = {}  # term -> (vector, index) while the entry is that add's float
    for is_add, pick in ops:
        if is_add or not resident:
            vector = vectors[pick % len(vectors)]
            for index, term in enumerate(vector):
                if term in reference:
                    owner.pop(term, None)
                else:
                    owner[term] = (vector, index)
            aw.add_document(vector)
            _reference_add(reference, vector)
            resident.append(vector)
        else:
            vector = resident.pop(pick % len(resident))
            for term in vector:
                owner.pop(term, None)
            aw.remove_document(vector)
            _reference_remove(reference, vector)
        assert list(aw._weights.items()) == list(reference.items())
        for term, (vector, index) in owner.items():
            assert aw._weights[term] is vector.units[index]


def test_budget_reserve_release():
    budget = MemoryBudget(10)
    assert budget.try_reserve(6)
    assert budget.used == 6
    assert not budget.try_reserve(5)
    assert budget.used == 6  # failed reserve leaves state unchanged
    assert budget.try_reserve(4)
    budget.release(10)
    assert budget.used == 0


def test_budget_unlimited():
    budget = MemoryBudget(UNLIMITED)
    assert budget.unlimited
    assert budget.try_reserve(10**9)


def test_budget_validation():
    with pytest.raises(ValueError):
        MemoryBudget(-5)
    budget = MemoryBudget(10)
    with pytest.raises(ValueError):
        budget.try_reserve(-1)
    with pytest.raises(ValueError):
        budget.release(1)  # nothing reserved


def test_budget_zero_capacity_rejects_everything():
    budget = MemoryBudget(0)
    assert budget.try_reserve(0)
    assert not budget.try_reserve(1)
