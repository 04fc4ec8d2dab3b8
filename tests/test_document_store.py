"""Tests for the document store: ordering, lookup, newest-first scans."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DocumentOrderError, DuplicateDocumentError
from repro.stream.document import Document
from repro.stream.document_store import DocumentStore
from tests.conftest import make_documents


def test_add_and_get():
    store = DocumentStore()
    docs = make_documents([["a"], ["b"]])
    for doc in docs:
        store.add(doc)
    assert store.get(0) is docs[0]
    assert store.get(1) is docs[1]
    assert store.get(99) is None
    assert len(store) == 2
    assert 0 in store and 99 not in store


def test_rejects_duplicate_ids():
    store = DocumentStore()
    store.add(Document.from_tokens(5, ["a"], 0.0))
    with pytest.raises(DuplicateDocumentError):
        store.add(Document.from_tokens(5, ["b"], 1.0))


def test_rejects_out_of_order_ids():
    store = DocumentStore()
    store.add(Document.from_tokens(5, ["a"], 0.0))
    with pytest.raises(DocumentOrderError):
        store.add(Document.from_tokens(4, ["b"], 1.0))


def test_rejects_time_regression():
    store = DocumentStore()
    store.add(Document.from_tokens(0, ["a"], 10.0))
    with pytest.raises(DocumentOrderError):
        store.add(Document.from_tokens(1, ["b"], 5.0))
    with pytest.raises(DocumentOrderError):
        store.add(Document.from_tokens(1, ["b"], float("nan")))
    store.add(Document.from_tokens(1, ["b"], 10.0))


def test_duplicate_id_error_is_order_error_subtype_or_distinct():
    # Re-adding an id that exists raises DuplicateDocumentError when the
    # store still holds it.
    store = DocumentStore()
    store.add(Document.from_tokens(0, ["a"], 0.0))
    with pytest.raises((DuplicateDocumentError, DocumentOrderError)):
        store.add(Document.from_tokens(0, ["a"], 0.0))


def test_iteration_orders():
    store = DocumentStore()
    docs = make_documents([["a"], ["b"], ["c"]])
    for doc in docs:
        store.add(doc)
    assert [d.doc_id for d in store] == [0, 1, 2]
    assert [d.doc_id for d in store.newest_first()] == [2, 1, 0]


def test_recent_matching_filters_and_orders():
    store = DocumentStore()
    for doc in make_documents([["x"], ["y"], ["x", "z"], ["y"], ["x"]]):
        store.add(doc)
    matches = store.recent_matching(["x"], limit=2)
    assert [d.doc_id for d in matches] == [4, 2]
    matches = store.recent_matching(["x", "y"], limit=10)
    assert [d.doc_id for d in matches] == [4, 3, 2, 1, 0]
    assert store.recent_matching(["missing"], limit=5) == []
    assert store.recent_matching(["x"], limit=0) == []


def test_recent_matching_takes_each_bucket_tail():
    """Buckets longer than ``limit`` contribute their newest ``limit``
    ids only, and documents shared by several terms are merged."""
    store = DocumentStore()
    for i in range(12):
        tokens = ["x"] if i % 3 else ["x", "y"]
        if i in (4, 10):
            tokens = ["y", "z"]
        store.add(Document.from_tokens(i, tokens, float(i)))
    # x: every id but 4 and 10; y: 0, 3, 4, 6, 9, 10; z: 4, 10.
    assert [d.doc_id for d in store.recent_matching(["x"], limit=3)] == [
        11, 9, 8
    ]
    # Tails: x -> {11, 9, 8, 7}, y -> {10, 9, 6, 4}, z -> {10, 4}; the
    # union's newest four, with the shared 9 and 10 counted once.
    assert [
        d.doc_id for d in store.recent_matching(["x", "y", "z"], limit=4)
    ] == [11, 10, 9, 8]
    assert [
        d.doc_id for d in store.recent_matching(["z", "y"], limit=10)
    ] == [10, 9, 6, 4, 3, 0]


_STORE_TERMS = st.sampled_from("abcd")
#: One-term, duplicate-term and multi-term queries, each at several
#: limits (0 included), checked after every step of a drawn history.
_FIXED_QUERIES = [
    (terms, limit)
    for terms in (["a"], ["a", "a"], ["b", "d"], ["a", "b", "c", "d"], ["z"])
    for limit in (0, 1, 3, 100)
]


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(st.lists(_STORE_TERMS, min_size=1, max_size=3), max_size=30),
    queries=st.lists(
        st.tuples(
            st.lists(_STORE_TERMS, min_size=1, max_size=4), st.integers(0, 6)
        ),
        max_size=4,
    ),
)
def test_recent_matching_is_the_brute_force_scan(steps, queries):
    """``recent_matching`` equals a scan of the stored documents: those
    holding any of the terms, newest first, at most ``limit`` of them —
    after every add of a drawn history."""
    store = DocumentStore()
    for doc_id, tokens in enumerate(steps):
        store.add(Document.from_tokens(doc_id, tokens, float(doc_id)))
        for terms, limit in _FIXED_QUERIES + queries:
            expected = [
                document
                for document in store.newest_first()
                if any(term in document.vector for term in terms)
            ][:limit]
            assert store.recent_matching(terms, limit) == expected
            assert store.recent_matching(iter(terms), limit) == expected


def test_term_buckets_are_lists_and_docs_a_plain_dict():
    """Buckets are lists sized to their ids (most hold one); documents
    sit in a plain dict.  ``test_recent_matching_is_the_brute_force_scan``
    is the behavioural check of both."""
    store = DocumentStore()
    for i, tokens in enumerate([["a", "b"], ["a"], ["c"], ["a", "d"], ["e"]]):
        store.add(Document.from_tokens(i, tokens, float(i)))
    assert type(store._docs) is dict
    assert list(store._docs) == [0, 1, 2, 3, 4]
    assert store._term_index == {
        "a": [0, 1, 3], "b": [0], "c": [2], "d": [3], "e": [4]
    }
    assert all(type(bucket) is list for bucket in store._term_index.values())
    with pytest.raises(TypeError):
        DocumentStore(index_terms=False)
    with pytest.raises(TypeError):
        DocumentStore(capacity=3)
