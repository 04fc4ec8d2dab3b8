"""Batching equivalence: ``publish_batch`` makes ``publish``'s decisions.

:meth:`~repro.core.engine.DasEngine.publish_batch` only amortises
cross-document invariants (postings-list lookups, the decay-power memo),
so on any stream the *notification sequences* — and therefore the result
sets and reference ``DR`` scores — must match sequential
:meth:`~repro.core.engine.DasEngine.publish` calls exactly.
"""

from __future__ import annotations

import pytest

from repro.core.engine import DasEngine
from repro.workloads.corpus import SyntheticTweetCorpus
from repro.workloads.queries import lqd_queries

METHODS = ("GIFilter", "IFilter", "BIRT", "IRT")


def make_workload(n_docs=220, n_queries=40, seed=3):
    corpus = SyntheticTweetCorpus(
        vocab_size=400, n_topics=12, doc_length=(4, 12), seed=seed
    )
    docs = corpus.documents(n_docs)
    queries = lqd_queries(corpus, n_queries, first_id=0)
    return docs, queries


def run_engine(method, docs, queries, batch_size=0, **overrides):
    """Drive one engine; returns (notification log, final DR map)."""
    engine = DasEngine.for_method(method, k=4, block_size=4, **overrides)
    warmup, stream = docs[:50], docs[50:]
    log = []

    def record(notifications):
        for n in notifications:
            log.append(
                (
                    n.query_id,
                    n.document.doc_id,
                    n.replaced.doc_id if n.replaced is not None else None,
                )
            )

    for document in warmup:
        record(engine.publish(document))
    for query in queries:
        engine.subscribe(query)
    if batch_size:
        for start in range(0, len(stream), batch_size):
            record(engine.publish_batch(stream[start : start + batch_size]))
    else:
        for document in stream:
            record(engine.publish(document))
    final_dr = {
        query.query_id: engine.current_dr(query.query_id)
        for query in queries
    }
    results = {
        query.query_id: [d.doc_id for d in engine.results(query.query_id)]
        for query in queries
    }
    return log, final_dr, results


@pytest.mark.parametrize("method", METHODS)
def test_batch_matches_sequential(method):
    docs, queries = make_workload(seed=5)
    seq = run_engine(method, docs, queries)
    for batch_size in (1, 7, 64):
        batched = run_engine(method, docs, queries, batch_size=batch_size)
        assert batched[0] == seq[0], batch_size
        assert batched[2] == seq[2], batch_size
        for query_id, expected in seq[1].items():
            assert batched[1][query_id] == pytest.approx(expected, abs=1e-12)
