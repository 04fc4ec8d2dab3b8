"""Unit and property tests for term vectors and similarity measures."""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text.vectors import (
    EMPTY_VECTOR,
    TermVector,
    angular_distance,
    angular_similarity,
    cosine_similarity,
    dissimilarity,
)

token_lists = st.lists(
    st.sampled_from("abcdefgh"), min_size=0, max_size=20
)


def test_from_tokens_counts_frequencies():
    vector = TermVector.from_tokens(["a", "b", "a", "c", "a"])
    assert vector.frequency("a") == 3
    assert vector.frequency("b") == 1
    assert vector.frequency("missing") == 0
    assert len(vector) == 3
    assert vector.length == 5


def test_norm_is_euclidean():
    vector = TermVector({"a": 3, "b": 4})
    assert vector.norm == pytest.approx(5.0)


def test_zero_frequencies_are_dropped():
    vector = TermVector({"a": 0, "b": 2})
    assert "a" not in vector
    assert len(vector) == 1


def test_negative_frequency_rejected():
    with pytest.raises(ValueError):
        TermVector({"a": -1})


@pytest.mark.parametrize("count", [0.5, 2.9, -0.5, True, False, "1", None, math.nan, math.inf])
def test_non_integer_frequency_rejected(count):
    """A fraction used to truncate (0.5 kept ``{"x": 0}``: non-empty with
    norm 0.0, and publishing it divided by zero); a bool is not a count."""
    with pytest.raises(ValueError):
        TermVector({"x": count})


def test_integral_float_frequency_is_a_count():
    vector = TermVector({"a": 2.0, "b": 0.0, "c": 1})
    assert vector == TermVector({"a": 2, "c": 1})
    assert type(vector.frequency("a")) is int
    assert vector.units == TermVector({"a": 2, "c": 1}).units


@given(st.dictionaries(st.sampled_from("abcdefgh"), st.integers(0, 50)))
def test_units_are_tf_over_norm_and_survive_pickling(tf):
    vector = TermVector(tf)
    assert vector.units == tuple(c / vector.norm for c in vector._tf.values())
    copy = pickle.loads(pickle.dumps(vector))
    assert copy.units == vector.units
    assert list(copy) == list(vector)


def test_empty_vector_properties():
    assert EMPTY_VECTOR.units == ()
    assert EMPTY_VECTOR.norm == 0.0
    assert EMPTY_VECTOR.length == 0
    assert not EMPTY_VECTOR
    assert cosine_similarity(EMPTY_VECTOR, TermVector({"a": 1})) == 0.0


def test_cosine_identical_vectors_is_one():
    vector = TermVector({"a": 2, "b": 1})
    assert cosine_similarity(vector, vector) == pytest.approx(1.0)


def test_cosine_orthogonal_vectors_is_zero():
    assert cosine_similarity(TermVector({"a": 1}), TermVector({"b": 1})) == 0.0


def test_cosine_known_value():
    a = TermVector({"x": 1, "y": 1})
    b = TermVector({"y": 1, "z": 1})
    assert cosine_similarity(a, b) == pytest.approx(0.5)


def test_dissimilarity_complements_cosine():
    a = TermVector({"x": 2, "y": 1})
    b = TermVector({"y": 3})
    assert dissimilarity(a, b) == pytest.approx(1.0 - cosine_similarity(a, b))


def test_unit_weight():
    vector = TermVector({"a": 3, "b": 4})
    assert vector.unit_weight("a") == pytest.approx(0.6)
    assert vector.unit_weight("missing") == 0.0
    assert EMPTY_VECTOR.unit_weight("a") == 0.0


def test_equality_and_hash():
    a = TermVector({"a": 1, "b": 2})
    b = TermVector.from_tokens(["b", "a", "b"])
    assert a == b
    assert hash(a) == hash(b)
    assert a != TermVector({"a": 1})


def test_dot_symmetric_iteration():
    a = TermVector({"a": 2})
    b = TermVector({"a": 3, "b": 1, "c": 4})
    assert a.dot(b) == b.dot(a) == 6.0


@given(token_lists, token_lists)
def test_cosine_symmetric(tokens_a, tokens_b):
    a = TermVector.from_tokens(tokens_a)
    b = TermVector.from_tokens(tokens_b)
    assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a))


@given(token_lists, token_lists)
def test_cosine_bounded(tokens_a, tokens_b):
    a = TermVector.from_tokens(tokens_a)
    b = TermVector.from_tokens(tokens_b)
    value = cosine_similarity(a, b)
    assert -1e-12 <= value <= 1.0 + 1e-12


@given(token_lists)
def test_cosine_self_similarity(tokens):
    vector = TermVector.from_tokens(tokens)
    if vector:
        assert cosine_similarity(vector, vector) == pytest.approx(1.0)


@given(token_lists, token_lists)
def test_angular_similarity_bounded(tokens_a, tokens_b):
    a = TermVector.from_tokens(tokens_a)
    b = TermVector.from_tokens(tokens_b)
    value = angular_similarity(a, b)
    assert 0.0 <= value <= 1.0


@given(token_lists, token_lists, token_lists)
def test_angular_distance_triangle_inequality(ta, tb, tc):
    """Angular distance is a metric — the property DisC relies on."""
    a = TermVector.from_tokens(ta)
    b = TermVector.from_tokens(tb)
    c = TermVector.from_tokens(tc)
    ab = angular_distance(a, b)
    bc = angular_distance(b, c)
    ac = angular_distance(a, c)
    assert ac <= ab + bc + 1e-9


def test_angular_similarity_identical():
    vector = TermVector({"a": 1, "b": 2})
    assert angular_similarity(vector, vector) == pytest.approx(1.0)


def test_angular_similarity_orthogonal():
    a = TermVector({"a": 1})
    b = TermVector({"b": 1})
    assert angular_similarity(a, b) == pytest.approx(0.5)


def test_repr_contains_terms():
    assert "a" in repr(TermVector({"a": 1}))
