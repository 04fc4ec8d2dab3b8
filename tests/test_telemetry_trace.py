"""Golden-trace regression test (ISSUE 5 satellite 3).

Runs a fixed seeded workload through a fully-sampled engine and compares
the captured span trees structurally against a committed fixture.  The
traces contain only counter deltas (no durations), the engine's
arithmetic is plain Python floats, and sampling is a pure function of
``(seed, doc_id)`` — so the fixture is stable across hosts and runs; a
mismatch means the pipeline's *shape* changed (stage attribution, span
structure, or the filtering work a publish performs).

Regenerate after an intentional change with::

    PYTHONPATH=src REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_telemetry_trace.py
"""

from __future__ import annotations

import json
import os

from repro.config import EngineConfig
from repro.core.engine import DasEngine
from repro.core.query import DasQuery
from repro.telemetry import CountingClock, Telemetry
from repro.workloads.corpus import SyntheticTweetCorpus
from repro.workloads.queries import lqd_queries

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "golden_trace.json"
)

N_DOCS = 40
N_QUERIES = 6


def run_traced_workload():
    """The fixed workload whose traces the fixture pins down."""
    corpus = SyntheticTweetCorpus(
        vocab_size=120, n_topics=5, doc_length=(4, 8), seed=23
    )
    documents = corpus.documents(N_DOCS)
    queries = lqd_queries(corpus, N_QUERIES, first_id=0)
    telemetry = Telemetry(
        time_fn=CountingClock(),
        sample_rate=1.0,
        seed=23,
        trace_capacity=N_DOCS,
    )
    engine = DasEngine(
        EngineConfig(k=3, block_size=4),
        telemetry=telemetry,
    )
    for document in documents[:10]:
        engine.publish(document)
    for query in queries:
        engine.subscribe(DasQuery(query.query_id, query.terms))
    engine.publish_batch(documents[10:])
    return telemetry


def test_golden_trace_matches_fixture():
    telemetry = run_traced_workload()
    traces = list(telemetry.traces)
    current = {
        "spans": telemetry.span_counts(),
        "traces": traces,
    }
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
        with open(FIXTURE, "w") as handle:
            json.dump(current, handle, indent=2, sort_keys=True)
            handle.write("\n")
    with open(FIXTURE) as handle:
        golden = json.load(handle)

    assert current["spans"] == golden["spans"]
    assert len(traces) == len(golden["traces"])
    for index, (trace, expected) in enumerate(
        zip(traces, golden["traces"])
    ):
        assert trace["doc_id"] == expected["doc_id"], f"trace {index}"
        assert trace["root"] == expected["root"], f"trace {index}"
        mine = {
            span["name"]: span["counters"] for span in trace["stages"]
        }
        theirs = {
            span["name"]: span["counters"] for span in expected["stages"]
        }
        assert mine == theirs, f"trace {index} (doc {trace['doc_id']})"


def test_traces_are_run_independent():
    """Two runs of the same workload produce identical span trees."""
    first = list(run_traced_workload().traces)
    second = list(run_traced_workload().traces)
    assert first == second
