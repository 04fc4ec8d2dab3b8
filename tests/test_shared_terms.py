"""One object per term: what a stored document, a query and the indexes
share once terms are interned where vectors and queries are built.

A term that arrives on the wire, in a replayed log record or in a
checkpoint is a fresh ``str`` from the JSON decoder; ``TermVector`` and
``DasQuery`` intern it, so the stored documents, the queries, the
inverted file's keys, the store's term index and the collection counts
all hold the object the first document of that term brought.
"""

from __future__ import annotations

import asyncio
import gc
import json
import tracemalloc

from hypothesis import given
from hypothesis import strategies as st

from repro.config import ServerConfig
from repro.core.agg_weights import AggregatedTermWeights
from repro.core.engine import DasEngine
from repro.persistence.checkpoint import checkpoint, restore
from repro.server import ServerRuntime
from repro.server.protocol import (
    document_from_payload,
    document_payload,
    raise_for_reply,
)
from repro.stream.document import Document
from repro.stream.document_store import DocumentStore
from repro.text.vectors import TermVector

PUBLISH = (
    '{"op": "publish", "tokens": ["espresso", "crema", "arabica", '
    '"roast", "espresso", "grinder", "barista", "portafilter", '
    '"tamper", "crema"], "created_at": %s}'
)
SUBSCRIBE = '{"op": "subscribe", "keywords": ["crema", "roast", "decaf"]}'


def _key(mapping, term):
    """The key object ``mapping`` holds for ``term``."""
    return next(key for key in mapping if key == term)


def _served_engine():
    """Two equal-vocabulary publishes and a subscribe, each decoded from
    JSON and sent through ``handle_request``; returns the engine and the
    two document ids and the query id."""

    async def scenario():
        runtime = ServerRuntime(
            DasEngine.for_method("GIFilter", k=2), ServerConfig()
        )
        await runtime.start()
        try:
            replies = [
                raise_for_reply(
                    await runtime.handle_request(None, json.loads(line))
                )
                for line in (PUBLISH % "1.0", PUBLISH % "2.0", SUBSCRIBE)
            ]
        finally:
            await runtime.stop()
        return runtime.engine, replies

    engine, (first, second, subscribed) = asyncio.run(
        asyncio.wait_for(scenario(), 30.0)
    )
    return engine, first["doc_id"], second["doc_id"], subscribed["query_id"]


def test_a_served_term_is_one_object_everywhere():
    decoded = [json.loads(PUBLISH % "1.0")["tokens"] for _ in range(2)]
    assert decoded[0][0] == decoded[1][0]
    assert decoded[0][0] is not decoded[1][0]  # the decoder's own strs

    engine, first_id, second_id, query_id = _served_engine()
    first = engine.store.get(first_id).vector
    second = engine.store.get(second_id).vector
    for term in first:
        assert _key(second._tf, term) is term
        assert _key(engine.store._term_index, term) is term
        assert _key(engine.stats._term_counts, term) is term
    query = engine._queries[query_id]
    for term in query.terms:
        assert _key(engine._index._lists, term) is term
        if term in first:
            assert _key(first._tf, term) is term

    # A document rebuilt from its wire payload (log replay) and an
    # engine restored from a JSON checkpoint hold the same objects.
    replayed = document_from_payload(
        json.loads(json.dumps(document_payload(engine.store.get(first_id))))
    ).vector
    restored = restore(json.loads(json.dumps(checkpoint(engine))))
    restored_first = restored.store.get(first_id).vector
    restored_query = restored._queries[query_id]
    for term in first:
        assert _key(replayed._tf, term) is term
        assert _key(restored_first._tf, term) is term
        assert _key(restored.stats._term_counts, term) is term
        assert _key(restored.store._term_index, term) is term
    for term, restored_term in zip(query.terms, restored_query.terms):
        assert restored_term is term
        assert _key(restored._index._lists, term) is term


def test_only_exact_strs_are_interned():
    class Tag(str):
        pass

    tag = Tag("tag")
    vector = TermVector({tag: 1, 7: 2})
    assert _key(vector._tf, "tag") is tag
    assert 7 in vector


@given(
    st.dictionaries(st.sampled_from("abcdefgh"), st.integers(0, 5)),
    st.integers(1, 3),
)
def test_equal_counts_share_one_unit_float(tf, copies):
    """One unit float per distinct count, each ``count / norm`` to the
    bit; an AW table's sums are the ``count / norm`` sums."""
    vector = TermVector(tf)
    by_count = {}
    for (term, count), unit in zip(vector.items(), vector.units):
        assert unit.hex() == (count / vector.norm).hex()
        assert by_count.setdefault(count, unit) is unit
    assert len({id(unit) for unit in vector.units}) == len(by_count)

    aw = AggregatedTermWeights()
    expected = {}
    for _ in range(copies):
        aw.add_document(vector)
        for term, count in vector.items():
            expected[term] = expected.get(term, 0.0) + count / vector.norm
    assert {t: w.hex() for t, w in aw._weights.items()} == {
        t: w.hex() for t, w in expected.items()
    }


def test_a_decoded_document_retains_no_term_a_stored_one_holds():
    """tracemalloc bytes a JSON-decoded 10-token, 8-term document keeps
    once a document with the same vocabulary is stored, CPython 3.11:
    1,296 B; 1,824 B when each vector kept its decoded ``str`` terms and
    one unit float per term."""
    store = DocumentStore()
    store.add(Document.from_tokens(0, json.loads(PUBLISH % "0.0")["tokens"], 0.0))

    def build():
        return Document.from_tokens(1, json.loads(PUBLISH % "1.0")["tokens"], 1.0)

    build()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept.vector) == 8
    assert retained <= 1500
