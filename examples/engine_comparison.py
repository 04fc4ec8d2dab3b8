#!/usr/bin/env python
"""Engine comparison: the paper's four methods on one stream.

Runs IRT, BIRT, IFilter and GIFilter over an identical workload and
prints wall-clock cost plus the machine-independent work counters that
explain it — similarity computations saved by the aggregated term
weights, blocks skipped by the group filter.  Finishes by checking that
all methods produced identical result sets (Section 8.4.1), and exits 1
if they did not.

Run:  python examples/engine_comparison.py
"""

from __future__ import annotations

import sys
import time

from repro import DasEngine, SyntheticTweetCorpus
from repro.workloads import lqd_queries

N_QUERIES = 3000
HISTORY = 3000
LIVE = 250


def main() -> int:
    corpus = SyntheticTweetCorpus(
        vocab_size=30000,
        n_topics=300,
        doc_length=(4, 16),
        term_exponent=0.7,
        topic_exponent=0.8,
        noise_ratio=0.3,
        seed=17,
    )
    history = corpus.documents(HISTORY)
    live = corpus.documents(LIVE, first_id=HISTORY, start_time=float(HISTORY))
    queries = lqd_queries(corpus, N_QUERIES, max_terms=3)

    rows = []
    results_by_method = {}
    for method in ("IRT", "BIRT", "IFilter", "GIFilter"):
        engine = DasEngine.for_method(
            method,
            k=20,
            block_size=64,
            smoothing_lambda=0.3,
        )
        for document in history:
            engine.publish(document)
        for query in queries:
            engine.subscribe(query)
        before = engine.counters.snapshot()
        start = time.perf_counter()
        for document in live:
            engine.publish(document)
        elapsed = time.perf_counter() - start
        c = engine.counters.delta(before)
        skip_ratio = c.blocks_skipped / max(1, c.blocks_skipped + c.blocks_visited)
        rows.append(
            (
                method,
                1000 * elapsed / LIVE,
                c.queries_evaluated / LIVE,
                c.sim_evaluations / LIVE,
                100 * skip_ratio,
            )
        )
        results_by_method[method] = {
            q.query_id: tuple(d.doc_id for d in engine.results(q.query_id))
            for q in queries
        }

    print(f"{'method':>10s} {'ms/doc':>9s} {'evals/doc':>10s} "
          f"{'sims/doc':>9s} {'skip %':>7s}")
    for method, ms, evals, sims, skip in rows:
        print(f"{method:>10s} {ms:9.2f} {evals:10.0f} {sims:9.0f} {skip:7.1f}")

    reference = results_by_method["IRT"]
    agree = all(
        results_by_method[m] == reference for m in ("BIRT", "IFilter", "GIFilter")
    )
    print(
        "\nall methods produced identical result sets:"
        f" {'yes' if agree else 'NO (bug!)'}"
    )
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
