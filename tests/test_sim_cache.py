"""The publish-scoped cosine cache and the R2 count (ISSUE 15).

The cache may only ever change *when* a cosine is computed, never its
value or which document it belongs to: it returns the exact floats of
``cosine_similarity``, lives for one stream document, and is invisible
to subscribe-time seeding.
"""

from __future__ import annotations

import functools
import operator

from hypothesis import given
from hypothesis import strategies as st

from repro.core.engine import DasEngine
from repro.core.query import DasQuery
from repro.core.result_set import QueryResultSet
from repro.persistence.checkpoint import checkpoint, restore
from repro.stream.document import Document
from repro.text.vectors import (
    SimCache,
    TermVector,
    cached_cosines,
    cosine_similarity,
)
from repro.workloads.corpus import SyntheticTweetCorpus
from repro.workloads.queries import lqd_queries
from tests.conftest import table_rows

# Empty vectors (zero norm) and vectors over disjoint halves of the
# alphabet are drawn on purpose: both take the short-circuit.
vectors = st.dictionaries(
    st.sampled_from("abcdefgh"), st.integers(1, 5), max_size=5
).map(TermVector)


def raw_cosine(a: TermVector, b: TermVector) -> float:
    """Eq. 6 without any short-circuit."""
    if a.norm == 0.0 or b.norm == 0.0:
        return 0.0
    dot = float(sum(count * b.frequency(term) for term, count in a.items()))
    return dot / (a.norm * b.norm)


@given(vectors, vectors)
def test_cosine_short_circuit_is_exact(a, b):
    assert cosine_similarity(a, b) == raw_cosine(a, b)


@given(st.lists(vectors, max_size=6), st.lists(vectors, min_size=1, max_size=3))
def test_cached_helper_returns_exact_cosines(members, probes):
    # No AW summary: the whole tail of the similarity sum is cosines.
    result_set = QueryResultSet(
        k=max(1, len(members)), track_aggregated_weights=False
    )
    for doc_id, vector in enumerate(members):
        document = Document(doc_id, vector, float(doc_id))
        result_set.admit(document, 0.1)
    entries = table_rows(result_set)
    for probe in probes:
        expected = [cosine_similarity(probe, e.document.vector) for e in entries]
        cache = SimCache()
        # Twice per cache: the second pass is served entirely by hits.
        for _ in range(2):
            assert result_set.similarities_to(probe, cache) == expected
            assert result_set.similarities_to_kept(probe, cache) == expected[1:]
            total, count, aw_dots = result_set.similarity_sum(probe, cache)
            assert (count, aw_dots) == (max(0, len(entries) - 1), 0)
            # Left-to-right float adds (``sum`` compensates on 3.12+).
            assert total == functools.reduce(operator.add, expected[1:], 0.0)
        assert len(cache) == len(entries)
        assert cache.lookups == 2 * (len(entries) + 2 * max(0, len(entries) - 1))
        # Uncached calls agree and leave the cache alone.
        assert result_set.similarities_to(probe) == expected
        assert cached_cosines(probe, result_set.documents(), None) == expected
        assert len(cache) == len(entries)


def make_engine(method="GIFilter", **overrides) -> DasEngine:
    return DasEngine.for_method(
        method, k=3, block_size=4, **overrides
    )


def workload(n_docs=120, n_queries=24, seed=11):
    corpus = SyntheticTweetCorpus(
        vocab_size=150, n_topics=5, doc_length=(4, 9), seed=seed
    )
    return corpus.documents(n_docs), lqd_queries(corpus, n_queries, first_id=0)


def log_of(notifications):
    return [
        (n.query_id, n.document.doc_id, n.replaced and n.replaced.doc_id)
        for n in notifications
    ]


def test_batch_documents_never_share_cache_entries():
    docs, queries = workload()
    batched, sequential = make_engine(), make_engine()
    for engine in (batched, sequential):
        for document in docs[:40]:
            engine.publish(document)
        for query in queries:
            engine.subscribe(query)
    expected = []
    for document in docs[40:]:
        expected.extend(log_of(sequential.publish(document)))
    got = []
    for start in range(40, len(docs), 8):
        batch = docs[start : start + 8]
        got.extend(log_of(batched.publish_batch(batch)))
        # Whatever the batch left behind was computed against its last
        # document only: nothing survives from an earlier one.
        last = batch[-1].vector
        for doc_id, sim in batched._sim_cache.items():
            stored = batched.store.get(doc_id).vector
            assert sim == cosine_similarity(last, stored)
    assert got == expected
    assert batched.counters.sim_cache_hits > 0
    for name in ("sim_evaluations", "sim_cache_hits", "mcs_rebuilds"):
        assert getattr(batched.counters, name) == getattr(
            sequential.counters, name
        )


def test_publish_clears_a_poisoned_cache():
    docs, queries = workload()
    clean, poisoned = make_engine(), make_engine()
    for engine in (clean, poisoned):
        for document in docs[:40]:
            engine.publish(document)
        for query in queries:
            engine.subscribe(query)
    for document in docs[40:]:
        for stored in poisoned.store:
            poisoned._sim_cache[stored.doc_id] = 99.0
        assert log_of(poisoned.publish(document)) == log_of(
            clean.publish(document)
        )


def test_subscribe_seeding_never_reads_the_publish_cache():
    docs, queries = workload()
    clean, poisoned = make_engine(), make_engine()
    for engine in (clean, poisoned):
        for document in docs[:60]:
            engine.publish(document)
        engine.subscribe(queries[0])
        engine.publish(docs[60])
    for stored in poisoned.store:
        poisoned._sim_cache[stored.doc_id] = 99.0
    before = dict(poisoned._sim_cache), poisoned._sim_cache.lookups
    for query in queries[1:]:
        assert [d.doc_id for d in poisoned.subscribe(query)] == [
            d.doc_id for d in clean.subscribe(query)
        ]
        mine = table_rows(poisoned._result_sets[query.query_id])
        theirs = table_rows(clean._result_sets[query.query_id])
        assert [e.sim_acc for e in mine] == [e.sim_acc for e in theirs]
    assert (dict(poisoned._sim_cache), poisoned._sim_cache.lookups) == before


def r2_counts_hold(engine: DasEngine) -> bool:
    # A warm-up table has settled no row yet: nothing resident, count 0.
    return all(
        rs._r2_count == sum(not e.aw_resident for e in table_rows(rs)[1:])
        if rs.is_full
        else rs._r2_count == 0
        and not any(e.aw_resident for e in table_rows(rs))
        for rs in engine._result_sets.values()
    )


def test_r2_count_tracks_non_resident_tail_entries():
    docs, queries = workload(n_docs=160)
    # A budget a few documents wide: most entries land in R2, and every
    # replacement moves entries between R1, R2 and the oldest slot.
    # BIRT keeps no AW summary at all: every tail entry is R2.
    for method, phi_max in (
        ("GIFilter", 0), ("GIFilter", 25), ("GIFilter", 200), ("BIRT", 25)
    ):
        engine = make_engine(method, phi_max=phi_max)
        for document in docs[:30]:
            engine.publish(document)
        for query in queries:
            engine.subscribe(query)
            assert r2_counts_hold(engine)
        for document in docs[30:]:
            engine.publish(document)
            assert r2_counts_hold(engine)
        assert engine.counters.matches > len(queries)
        if method == "GIFilter" and phi_max == 25:
            counts = [rs._r2_count for rs in engine._result_sets.values()]
            assert any(counts) and not all(counts)
        restored = restore(checkpoint(engine))
        assert r2_counts_hold(restored)
        for document in docs[:5]:
            follow_up = Document(
                1000 + document.doc_id, document.vector, 1000.0
            )
            assert log_of(restored.publish(follow_up)) == log_of(
                engine.publish(follow_up)
            )
        assert r2_counts_hold(restored)
        released = next(iter(engine._result_sets.values()))
        released.release_budget()
        assert released._r2_count == sum(
            not e.aw_resident for e in table_rows(released)[1:]
        )
        assert not any(e.aw_resident for e in table_rows(released))


def test_similarity_sum_matches_direct_cosines_under_a_tight_budget():
    docs, queries = workload()
    engine = make_engine(phi_max=25)
    for document in docs[:30]:
        engine.publish(document)
    for query in queries:
        engine.subscribe(query)
    for document in docs[30:]:
        engine.publish(document)
    probe = docs[-1].vector
    for result_set in engine._result_sets.values():
        total, direct, _ = result_set.similarity_sum(probe, SimCache())
        assert direct == result_set._r2_count
        expected = sum(
            cosine_similarity(probe, e.document.vector)
            for e in table_rows(result_set)[1:]
        )
        assert abs(total - expected) < 1e-9


def test_unlimited_budget_query_has_no_r2_and_skips_the_kernel():
    engine = make_engine()
    engine.subscribe(DasQuery(0, ("apple",)))
    for doc_id in range(6):
        engine.publish(
            Document(doc_id, TermVector({"apple": 1, f"t{doc_id}": 1}), float(doc_id))
        )
    result_set = engine._result_sets[0]
    assert result_set._r2_count == 0
    assert result_set.similarity_sum(TermVector({"apple": 1}))[1] == 0
