#!/usr/bin/env python
"""Trending-topic monitor: many SQD-style subscriptions, quality report.

Mirrors the paper's SQD scenario (Section 8.2): subscriptions built from
trending topics, evaluated both for throughput and for the user-study
quality aspects of Table 6 (relevance / recency / range of interests).

Run:  python examples/trending_monitor.py
"""

from __future__ import annotations

import time

from repro import DasEngine, SyntheticTweetCorpus
from repro.experiments.quality import evaluate_result_set, mean_report
from repro.workloads import sqd_queries

N_QUERIES = 400
HISTORY = 2000
LIVE = 400


def main() -> None:
    corpus = SyntheticTweetCorpus(
        vocab_size=20000,
        n_topics=200,
        doc_length=(4, 14),
        term_exponent=0.7,
        noise_ratio=0.3,
        seed=7,
    )
    trending = corpus.trending_terms(per_topic=2)
    queries = sqd_queries(trending, N_QUERIES, max_terms=3)

    for alpha, label in ((0.3, "diversity-leaning"), (0.7, "relevance-leaning")):
        engine = DasEngine.for_method("GIFilter", k=5, block_size=64, alpha=alpha)
        for document in corpus.documents(HISTORY):
            engine.publish(document)
        for query in queries:
            engine.subscribe(query)

        start = time.perf_counter()
        live = corpus.documents(LIVE, first_id=HISTORY, start_time=float(HISTORY))
        pushed = 0
        for document in live:
            pushed += len(engine.publish(document))
        elapsed = time.perf_counter() - start

        reports = []
        for query in queries[:100]:
            documents = engine.results(query.query_id)
            if documents:
                reports.append(
                    evaluate_result_set(
                        query.terms,
                        documents,
                        engine.scorer,
                        engine.decay,
                        engine.clock.now,
                    )
                )
        summary = mean_report(reports)
        print(f"\nalpha={alpha} ({label})")
        print(
            f"  throughput : {LIVE / elapsed:7.0f} docs/s over {N_QUERIES} "
            f"subscriptions ({1000 * elapsed / LIVE:.2f} ms/doc)"
        )
        print(f"  pushes     : {pushed} result updates")
        print(f"  relevance  : {summary.relevance:.4f}")
        print(f"  recency    : {summary.recency:.4f}")
        print(f"  range      : {summary.range_of_interests:.4f}  (higher = broader)")

    print(
        "\nNote the trade-off: higher alpha lifts relevance/recency, "
        "lower alpha widens the range of interests — Table 6's pattern."
    )


if __name__ == "__main__":
    main()
