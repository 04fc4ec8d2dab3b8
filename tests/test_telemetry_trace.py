"""Golden-trace regression test.

Runs a fixed seeded workload one publish at a time and records, per
document, the engine's work-counter deltas split by filtering stage,
then compares the result with a committed fixture.  Counter deltas are
exact (the engine's arithmetic is plain Python floats), so the fixture
is stable across hosts and runs; a mismatch means the filtering work a
publish performs, or the stage it is attributed to, changed.

Publishing documents one at a time equals publishing them as a batch
(``tests/test_backend_equivalence.py``), so the deltas are those of the
batch as well.

Regenerate after an intentional change with::

    PYTHONPATH=src python tests/test_telemetry_trace.py
"""

from __future__ import annotations

import json
import os

from repro.config import EngineConfig
from repro.core.engine import DasEngine
from repro.core.query import DasQuery
from repro.telemetry import ENGINE_STAGES, CountingClock, Telemetry
from repro.workloads.corpus import SyntheticTweetCorpus
from repro.workloads.queries import lqd_queries

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "golden_trace.json"
)

N_DOCS = 40
N_QUERIES = 6

#: Which work counters each engine stage moves.
STAGE_COUNTERS = {
    "postings_traversal": (
        "postings_visited",
        "blocks_visited",
        "blocks_skipped",
    ),
    "group_filter": ("group_checks", "group_checks_deferred", "mcs_rebuilds"),
    "individual_filter": (
        "queries_evaluated",
        "quick_rejections",
        "sim_evaluations",
        "sim_cache_hits",
        "aw_dot_products",
    ),
    "result_update": ("matches", "mcs_invalidations"),
}


def traced_publish(engine, document):
    """Publish one document; its span tree of nonzero counter deltas."""
    before = engine.counters.as_dict()
    engine.publish(document)
    after = engine.counters.as_dict()
    return {
        "doc_id": document.doc_id,
        "root": "publish",
        "stages": [
            {
                "name": stage,
                "counters": {
                    name: after[name] - before[name]
                    for name in STAGE_COUNTERS[stage]
                    if after[name] != before[name]
                },
            }
            for stage in ENGINE_STAGES
        ],
    }


def traced_workload_record():
    """The fixed workload whose span ledger and traces the fixture pins
    down."""
    corpus = SyntheticTweetCorpus(
        vocab_size=120, n_topics=5, doc_length=(4, 8), seed=23
    )
    documents = corpus.documents(N_DOCS)
    queries = lqd_queries(corpus, N_QUERIES, first_id=0)
    telemetry = Telemetry(time_fn=CountingClock())
    engine = DasEngine(
        EngineConfig(k=3, block_size=4),
        telemetry=telemetry,
    )
    traces = [traced_publish(engine, document) for document in documents[:10]]
    for query in queries:
        engine.subscribe(DasQuery(query.query_id, query.terms))
    traces += [traced_publish(engine, document) for document in documents[10:]]
    return {"spans": telemetry.span_counts(), "traces": traces}


def test_golden_trace_matches_fixture():
    current = traced_workload_record()
    with open(FIXTURE) as handle:
        golden = json.load(handle)

    assert current["spans"] == golden["spans"]
    assert len(current["traces"]) == len(golden["traces"]) == N_DOCS
    for index, (trace, expected) in enumerate(
        zip(current["traces"], golden["traces"])
    ):
        assert trace == expected, f"trace {index} (doc {trace['doc_id']})"


def test_traces_are_run_independent():
    """Two runs of the same workload produce identical span trees."""
    assert traced_workload_record() == traced_workload_record()


if __name__ == "__main__":
    with open(FIXTURE, "w") as handle:
        json.dump(
            traced_workload_record(),
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
