"""End-to-end serving-runtime throughput (ISSUE 2: new subsystem).

Measures docs/sec through the full in-process transport path —
``InProcessClient.publish`` → bounded ingestion queue → matcher task →
drained micro-batch → engine → delivery queue → consuming subscriber —
at 1, 4 and 16 concurrent publishers.  Unlike ``test_publish_throughput``
(pure engine cost, ``process_time``), this benchmark is about the
asyncio pipeline, so it times wall-clock (``perf_counter``) with one
warm-up round and reports the best of ``MEASURE_ROUNDS`` timed rounds.

The ``REPRO_BENCH_SCALE`` environment variable scales the per-round
document count (the CI regression gate runs at a fraction of the
committed baselines' scale; rates stay comparable because they are
per-second).

Artifacts:

* ``benchmarks/out/server_throughput.txt`` — human-readable table;
* ``BENCH_server.json`` at the repo root — machine-readable trajectory
  record (docs/sec per concurrency level and per worker-process count,
  plus batching stats).
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import time

from benchmarks.common import bench_scale, write_output
from repro.config import ServerConfig
from repro.core.engine import DasEngine
from repro.core.query import DasQuery
from repro.parallel import ParallelShardedEngine
from repro.server import InProcessClient, ServerRuntime
from repro.workloads.corpus import SyntheticTweetCorpus
from repro.workloads.queries import lqd_queries

#: Concurrent publisher counts exercised (ISSUE 2 satellite e).
PUBLISHER_COUNTS = (1, 4, 16)
#: Documents pushed per round, split across the publishers
#: (kept a multiple of 16 so every publisher count divides evenly).
DOCS_PER_ROUND = max(32, int(480 * bench_scale()) // 16 * 16)
#: Timed rounds per level (after one untimed warm-up round).
MEASURE_ROUNDS = 2
#: Worker-process counts for the parallel-engine sweep (ISSUE 4);
#: 0 = in-process engine baseline.
WORKER_COUNTS = (0, 2, 4)
#: Publisher count used for the parallel-engine sweep.
PARALLEL_PUBLISHERS = 4
#: Shard-node processes for the cluster row (ISSUE 7).
CLUSTER_NODES = 2

N_QUERIES = 16
VOCAB = [f"term{i}" for i in range(40)]

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_server.json")


def _token_stream(publisher, count, round_index):
    """Deterministic token lists that keep hitting the subscriptions."""
    stream = []
    for index in range(count):
        a = VOCAB[(publisher * 7 + index) % len(VOCAB)]
        b = VOCAB[(publisher * 3 + index * 5 + round_index) % len(VOCAB)]
        stream.append([a, b, f"u{round_index}_{publisher}_{index}"])
    return stream


async def _measure_level(n_publishers, parallel_workers=0):
    """Fresh runtime per level; returns (rates, stats_snapshot)."""
    runtime = ServerRuntime(
        DasEngine.for_method("GIFilter", k=10, block_size=4),
        ServerConfig(
            ingest_capacity=256,
            outbound_capacity=8192,
            max_batch_size=64,
            drain_timeout=30.0,
            parallel_workers=parallel_workers,
        ),
    )
    await runtime.start()
    subscriber = InProcessClient(runtime, capacity=8192)
    for index in range(N_QUERIES):
        await subscriber.subscribe(
            [VOCAB[index % len(VOCAB)], VOCAB[(index * 11 + 3) % len(VOCAB)]]
        )

    delivered = 0

    async def consume():
        nonlocal delivered
        while True:
            message = await subscriber.next_message()
            if message is None or message["op"] == "closed":
                return
            delivered += 1

    consumer = asyncio.create_task(consume())

    async def publisher(stream):
        client = InProcessClient(runtime)
        for tokens in stream:
            await client.publish(tokens=tokens)
        await client.close()

    docs_each = DOCS_PER_ROUND // n_publishers
    rates = []
    for round_index in range(MEASURE_ROUNDS + 1):
        streams = [
            _token_stream(p, docs_each, round_index)
            for p in range(n_publishers)
        ]
        start = time.perf_counter()
        await asyncio.gather(*[publisher(stream) for stream in streams])
        elapsed = time.perf_counter() - start
        if round_index == 0:
            continue  # warm-up round
        total = docs_each * n_publishers
        rates.append(total / elapsed if elapsed > 0 else 0.0)

    stats = runtime.stats()
    await runtime.stop()
    await consumer
    return rates, stats, delivered


def run_server_suite():
    results = {}
    for n_publishers in PUBLISHER_COUNTS:
        rates, stats, delivered = asyncio.run(
            asyncio.wait_for(_measure_level(n_publishers), 300.0)
        )
        results[n_publishers] = {
            "docs_per_sec": max(rates),
            "rounds": [round(rate, 1) for rate in rates],
            "accepted": stats["accepted"],
            "batches": stats["batches"]["batches"],
            "max_batch": stats["batches"]["max_size"],
            "delivered": delivered,
        }
    return results


def run_parallel_suite():
    """The parallel-workers dimension: same pipeline, engine in-process
    (0) vs in N shard worker processes, at a fixed publisher count."""
    results = {}
    for n_workers in WORKER_COUNTS:
        rates, stats, delivered = asyncio.run(
            asyncio.wait_for(
                _measure_level(PARALLEL_PUBLISHERS, n_workers), 300.0
            )
        )
        results[n_workers] = {
            "docs_per_sec": max(rates),
            "rounds": [round(rate, 1) for rate in rates],
            "accepted": stats["accepted"],
            "delivered": delivered,
            "restarts": (
                sum(stats["workers"]["restarts"]) if stats["workers"] else 0
            ),
        }
    return results


def run_cluster_suite():
    """The multi-node deployment (ISSUE 7): docs/sec through the full
    coordinator path — journal append, ``replicate`` fan-out over TCP
    to node subprocesses, doc-major/shard-minor merge — with the same
    query load as the other suites.  No standbys: this measures the
    wire cost of the tier, not replication lag."""
    from repro.cluster import launch_cluster

    corpus = SyntheticTweetCorpus(
        vocab_size=250, n_topics=8, doc_length=(4, 10), seed=5
    )
    total = DOCS_PER_ROUND * (MEASURE_ROUNDS + 1)
    docs = corpus.documents(total)
    queries = lqd_queries(corpus, N_QUERIES, first_id=0)
    engine, primaries, _standbys = launch_cluster(
        CLUSTER_NODES, replicas=0, method="GIFilter", k=10
    )
    rates = []
    notified = 0
    try:
        for query in queries:
            engine.subscribe(DasQuery(query.query_id, query.terms))
        for round_index in range(MEASURE_ROUNDS + 1):
            chunk = docs[
                round_index * DOCS_PER_ROUND
                : (round_index + 1) * DOCS_PER_ROUND
            ]
            start = time.perf_counter()
            for batch_start in range(0, len(chunk), 16):
                notified += len(
                    engine.publish_batch(
                        chunk[batch_start : batch_start + 16]
                    )
                )
            elapsed = time.perf_counter() - start
            if round_index == 0:
                continue  # warm-up round
            rates.append(len(chunk) / elapsed if elapsed > 0 else 0.0)
        published = engine.counters.docs_published
    finally:
        engine.close()
        for node in primaries:
            node.stop()
    return {
        "docs_per_sec": max(rates),
        "rounds": [round(rate, 1) for rate in rates],
        "nodes": CLUSTER_NODES,
        "published": published,
        "notified": notified,
    }


def _wire_bytes_per_doc(disable_shm):
    """Parent-side pipe serialization per published document (ISSUE 6).

    Runs the parallel engine directly (no asyncio pipeline — this is a
    wire measurement, not a throughput one) over a fixed corpus and
    reads ``wire_stats``.  ``pipe_bytes`` counts the bytes actually
    pickled onto the worker request pipes: with the shared-memory ring
    that is just op tuples plus vocabulary deltas; without it the full
    document payload is serialized once per worker.
    """
    corpus = SyntheticTweetCorpus(
        vocab_size=250, n_topics=8, doc_length=(4, 10), seed=5
    )
    docs = corpus.documents(max(64, int(512 * bench_scale()) // 16 * 16))
    queries = lqd_queries(corpus, N_QUERIES, first_id=0)
    previous = os.environ.pop("REPRO_DISABLE_SHM", None)
    if disable_shm:
        os.environ["REPRO_DISABLE_SHM"] = "1"
    try:
        with ParallelShardedEngine(
            2, DasEngine.for_method("GIFilter", k=10, block_size=4).config
        ) as parallel:
            for query in queries:
                parallel.subscribe(DasQuery(query.query_id, query.terms))
            for start in range(0, len(docs), 16):
                parallel.publish_batch(docs[start : start + 16])
            return parallel.wire_stats()
    finally:
        if previous is not None:
            os.environ["REPRO_DISABLE_SHM"] = previous
        else:
            os.environ.pop("REPRO_DISABLE_SHM", None)


def run_wire_suite():
    """Per-document wire bytes, shared-memory ring vs pickle pipe."""
    shm = _wire_bytes_per_doc(disable_shm=False)
    pipe = _wire_bytes_per_doc(disable_shm=True)
    reduction = (
        pipe["pipe_bytes_per_doc"] / shm["pipe_bytes_per_doc"]
        if shm["pipe_bytes_per_doc"]
        else None
    )
    return {
        "transport_default": shm["transport"],
        "shm_pipe_bytes_per_doc": shm["pipe_bytes_per_doc"],
        "shm_bytes_per_doc": shm["shm_bytes_per_doc"],
        "fallback_pipe_bytes_per_doc": pipe["pipe_bytes_per_doc"],
        "pipe_reduction_factor": reduction,
    }


def format_table(results, parallel_results):
    lines = [
        "Serving-runtime throughput (docs/sec end-to-end via the "
        f"in-process transport, best of {MEASURE_ROUNDS} perf_counter "
        f"rounds, {N_QUERIES} queries, {DOCS_PER_ROUND} docs/round)",
        f"{'publishers':>10} {'docs/sec':>10} {'max batch':>10}  rounds",
    ]
    for n_publishers, record in results.items():
        rounds = ", ".join(f"{rate:.1f}" for rate in record["rounds"])
        lines.append(
            f"{n_publishers:>10} {record['docs_per_sec']:>10.1f} "
            f"{record['max_batch']:>10}  [{rounds}]"
        )
    lines.append("")
    lines.append(
        f"Parallel-workers sweep ({PARALLEL_PUBLISHERS} publishers; "
        "0 workers = in-process engine)"
    )
    lines.append(f"{'workers':>10} {'docs/sec':>10}  rounds")
    for n_workers, record in parallel_results.items():
        rounds = ", ".join(f"{rate:.1f}" for rate in record["rounds"])
        lines.append(
            f"{n_workers:>10} {record['docs_per_sec']:>10.1f}  [{rounds}]"
        )
    return "\n".join(lines)


def format_wire(wire):
    return "\n".join(
        [
            "Document wire (2 workers; bytes pickled onto worker pipes "
            "per published document)",
            f"  shared-memory ring: {wire['shm_pipe_bytes_per_doc']:.1f} "
            f"B/doc on pipes (+{wire['shm_bytes_per_doc']:.1f} B/doc "
            "written once to shm)",
            f"  pickle pipe:        "
            f"{wire['fallback_pipe_bytes_per_doc']:.1f} B/doc",
            f"  reduction:          {wire['pipe_reduction_factor']:.1f}x",
        ]
    )


def test_server_throughput():
    results = run_server_suite()
    for n_publishers in PUBLISHER_COUNTS:
        record = results[n_publishers]
        assert record["docs_per_sec"] > 0.0, n_publishers
        # Every publish of every round was accepted and matched.
        assert record["accepted"] == DOCS_PER_ROUND * (MEASURE_ROUNDS + 1)
        # The block-policy subscriber lost nothing.
        assert record["delivered"] > 0

    parallel_results = run_parallel_suite()
    for n_workers in WORKER_COUNTS:
        record = parallel_results[n_workers]
        assert record["docs_per_sec"] > 0.0, n_workers
        assert record["accepted"] == DOCS_PER_ROUND * (MEASURE_ROUNDS + 1)
        assert record["restarts"] == 0, n_workers  # no crashes under load

    cluster = run_cluster_suite()
    assert cluster["docs_per_sec"] > 0.0
    # Zero accepted-op loss under load: every published document is
    # accounted for by the surviving nodes' merged counters.
    assert cluster["published"] == DOCS_PER_ROUND * (MEASURE_ROUNDS + 1)

    wire = run_wire_suite()
    # ISSUE 6 acceptance: the shared-memory wire serializes at least
    # 5x fewer bytes per document onto the worker pipes.
    assert wire["transport_default"] == "shm"
    assert wire["pipe_reduction_factor"] >= 5.0

    baseline = parallel_results[0]["docs_per_sec"]
    cluster_line = (
        f"\nCluster ({CLUSTER_NODES} TCP node processes, no standbys): "
        f"{cluster['docs_per_sec']:.1f} docs/sec "
        f"({cluster['docs_per_sec'] / baseline:.2f}x of in-process)"
        if baseline
        else ""
    )
    write_output(
        "server_throughput",
        format_table(results, parallel_results)
        + "\n\n"
        + format_wire(wire)
        + cluster_line,
    )
    payload = {
        "benchmark": "server_throughput",
        "spec": {
            "publisher_counts": list(PUBLISHER_COUNTS),
            "worker_counts": list(WORKER_COUNTS),
            "parallel_publishers": PARALLEL_PUBLISHERS,
            "docs_per_round": DOCS_PER_ROUND,
            "measure_rounds": MEASURE_ROUNDS,
            "n_queries": N_QUERIES,
            "k": 10,
            "timer": "perf_counter",
        },
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "results": {
            str(n_publishers): {
                "docs_per_sec": record["docs_per_sec"],
                "rounds": record["rounds"],
                "batches": record["batches"],
                "max_batch": record["max_batch"],
            }
            for n_publishers, record in results.items()
        },
        "parallel_workers": {
            str(n_workers): {
                "docs_per_sec": record["docs_per_sec"],
                "rounds": record["rounds"],
                "speedup_vs_inprocess": (
                    record["docs_per_sec"] / baseline if baseline else None
                ),
            }
            for n_workers, record in parallel_results.items()
        },
        "cluster": {
            "docs_per_sec": cluster["docs_per_sec"],
            "rounds": cluster["rounds"],
            "nodes": cluster["nodes"],
            # Throughput retention vs the in-process engine (<= 1; a
            # drop means the cluster tier got relatively slower).
            "throughput_vs_inprocess": (
                cluster["docs_per_sec"] / baseline if baseline else None
            ),
        },
        "wire": wire,
    }
    with open(JSON_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
