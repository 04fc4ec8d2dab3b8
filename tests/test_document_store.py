"""Tests for the document store: ordering, lookup, pinning, eviction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import UNLIMITED
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


def test_eviction_drops_oldest_unpinned():
    store = DocumentStore(capacity=3)
    for doc in make_documents([["a"], ["b"], ["c"], ["d"]]):
        store.add(doc)
    assert len(store) == 3
    assert store.get(0) is None
    assert store.get(3) is not None


def test_pinned_documents_survive_eviction():
    store = DocumentStore(capacity=2)
    docs = make_documents([["a"], ["b"], ["c"], ["d"]])
    store.add(docs[0])
    store.pin(0)
    for doc in docs[1:]:
        store.add(doc)
    assert store.get(0) is not None  # pinned
    assert store.get(1) is None  # evicted instead
    assert len(store) <= 3


def test_unpin_releases_refcount():
    store = DocumentStore(capacity=1)
    docs = make_documents([["a"], ["b"], ["c"]])
    store.add(docs[0])
    store.pin(0)
    store.pin(0)
    assert store.pin_count(0) == 2
    store.unpin(0)
    assert store.pin_count(0) == 1
    store.unpin(0)
    assert store.pin_count(0) == 0
    store.add(docs[1])
    store.add(docs[2])
    assert store.get(0) is None


def test_eviction_updates_term_index():
    store = DocumentStore(capacity=1)
    for doc in make_documents([["x"], ["x"], ["y"]]):
        store.add(doc)
    matches = store.recent_matching(["x"], limit=10)
    assert matches == []  # both x-docs evicted
    assert [d.doc_id for d in store.recent_matching(["y"], limit=10)] == [2]


def test_unpin_unknown_is_noop():
    store = DocumentStore()
    store.unpin(42)  # must not raise
    assert store.pin_count(42) == 0


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
    capacity=st.sampled_from([UNLIMITED, 1, 3]),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["add", "add", "add", "pin", "unpin"]),
            st.lists(_STORE_TERMS, min_size=1, max_size=3),
            st.integers(0, 40),
        ),
        max_size=30,
    ),
    queries=st.lists(
        st.tuples(
            st.lists(_STORE_TERMS, min_size=1, max_size=4), st.integers(0, 6)
        ),
        max_size=4,
    ),
)
def test_recent_matching_is_the_brute_force_scan(capacity, steps, queries):
    """``recent_matching`` equals a scan of the live documents: those
    holding any of the terms, newest first, at most ``limit`` of them —
    through pins, unpins and evictions of a capacity-bound store."""
    store = DocumentStore(capacity)
    next_id = 0
    for action, tokens, pick in steps:
        if action == "add":
            store.add(Document.from_tokens(next_id, tokens, float(next_id)))
            next_id += 1
        elif next_id:
            doc_id = pick % next_id
            if action == "pin":
                store.pin(doc_id)
            else:
                store.unpin(doc_id)
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
    store = DocumentStore(capacity=3)
    for i, tokens in enumerate([["a", "b"], ["a"], ["c"], ["a", "d"], ["e"]]):
        store.add(Document.from_tokens(i, tokens, float(i)))
    assert type(store._docs) is dict
    assert list(store._docs) == [2, 3, 4]
    assert store._term_index == {"a": [3], "c": [2], "d": [3], "e": [4]}
    assert all(type(bucket) is list for bucket in store._term_index.values())
    with pytest.raises(TypeError):
        DocumentStore(index_terms=False)
