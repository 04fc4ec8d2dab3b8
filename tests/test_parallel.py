"""Tests for the process-parallel sharded engine (ISSUE 4 tentpole).

The contract: :class:`ParallelShardedEngine` is byte-identical to
:class:`ShardedDasEngine` with the same shard count (same notification
sequences, same results, same checkpoints) and result-equal to the
single-engine oracle (per-document notification *sets* match; the
within-document ordering legitimately differs across shard layouts, as
the existing distributed tests already assert).  A killed worker is
restarted from its last checkpoint plus the op journal, and the engine's
observable behaviour never diverges from the oracle.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.config import EngineConfig, ServerConfig
from repro.core.engine import DasEngine
from repro.core.query import DasQuery
from repro.distributed import ShardedDasEngine
from repro.errors import (
    ConfigurationError,
    DuplicateQueryError,
    UnknownQueryError,
    WorkerCrashError,
)
from repro.parallel import ParallelShardedEngine
from repro.persistence.checkpoint import (
    checkpoint_sharded,
    load,
    restore_sharded,
    save,
)
from repro.server import ServerRuntime
from repro.workloads.corpus import SyntheticTweetCorpus
from repro.workloads.queries import lqd_queries

N_SHARDS = 2


@pytest.fixture(scope="module")
def workload():
    corpus = SyntheticTweetCorpus(
        vocab_size=250, n_topics=8, doc_length=(4, 10), seed=11
    )
    return corpus.documents(110), lqd_queries(corpus, 14, first_id=0)


def config():
    return EngineConfig(k=4, block_size=8)


def note_log(notifications):
    return [
        (
            n.query_id,
            n.document.doc_id,
            n.replaced.doc_id if n.replaced is not None else None,
        )
        for n in notifications
    ]


def drive(engine, docs, queries, batch_size=10):
    """Warm up, subscribe, stream in batches; return the notification log."""
    log = []
    for document in docs[:30]:
        log += note_log(engine.publish(document))
    for query in queries:
        engine.subscribe(DasQuery(query.query_id, query.terms))
    stream = docs[30:]
    for start in range(0, len(stream), batch_size):
        log += note_log(engine.publish_batch(stream[start : start + batch_size]))
    return log


def test_validation():
    with pytest.raises(ValueError):
        ParallelShardedEngine(0)
    with pytest.raises(ValueError):
        ParallelShardedEngine(2, routing="random")


def test_matches_sharded_and_single(workload):
    """Three-way equivalence: notifications, results, DR, checkpoints."""
    docs, queries = workload
    single = DasEngine(config())
    sharded = ShardedDasEngine(N_SHARDS, config())
    with ParallelShardedEngine(N_SHARDS, config()) as parallel:
        log_single = drive(single, docs, queries)
        log_sharded = drive(sharded, docs, queries)
        log_parallel = drive(parallel, docs, queries)

        # Exact sequence equality against the same-layout sharded engine;
        # set equality against the single oracle (per-doc order differs).
        assert log_parallel == log_sharded
        assert set(log_parallel) == set(log_single)

        for query in queries:
            qid = query.query_id
            assert [d.doc_id for d in parallel.results(qid)] == [
                d.doc_id for d in single.results(qid)
            ]
            assert parallel.current_dr(qid) == pytest.approx(
                single.current_dr(qid)
            )

        assert parallel.counters.docs_published == len(docs)
        assert parallel.checkpoint() == checkpoint_sharded(sharded)


def test_worker_kill_and_restart(workload):
    """A SIGKILLed worker recovers from checkpoint + journal replay and
    the engine stays oracle-equal (satellite 3's fault test)."""
    docs, queries = workload
    sharded = ShardedDasEngine(N_SHARDS, config())
    with ParallelShardedEngine(N_SHARDS, config()) as parallel:
        for document in docs[:30]:
            sharded.publish(document)
            parallel.publish(document)
        for query in queries[:6]:
            sharded.subscribe(DasQuery(query.query_id, query.terms))
            parallel.subscribe(DasQuery(query.query_id, query.terms))
        parallel.checkpoint()
        # Post-checkpoint ops land in the journal and must survive replay.
        for query in queries[6:]:
            sharded.subscribe(DasQuery(query.query_id, query.terms))
            parallel.subscribe(DasQuery(query.query_id, query.terms))
        log_sharded = note_log(sharded.publish_batch(docs[30:60]))
        log_parallel = note_log(parallel.publish_batch(docs[30:60]))
        assert log_parallel == log_sharded

        parallel.kill_worker(0)
        log_sharded = note_log(sharded.publish_batch(docs[60:]))
        log_parallel = note_log(parallel.publish_batch(docs[60:]))
        assert log_parallel == log_sharded

        stats = parallel.worker_stats()
        assert stats["restarts"][0] == 1
        assert stats["recoveries"] == 1
        assert all(stats["alive"])
        for query in queries:
            qid = query.query_id
            assert [d.doc_id for d in parallel.results(qid)] == [
                d.doc_id for d in sharded.results(qid)
            ]


def test_checkpoint_round_trip(tmp_path, workload):
    """save() fans out to workers; load(parallel=True) brings the file
    back up process-parallel, equal to the in-process sharded restore."""
    docs, queries = workload
    with ParallelShardedEngine(N_SHARDS, config()) as parallel:
        drive(parallel, docs[:60], queries[:8])
        path = str(tmp_path / "parallel.json")
        save(parallel, path)

    oracle = load(path)
    assert isinstance(oracle, ShardedDasEngine)
    with load(path, parallel=True) as restored:
        assert isinstance(restored, ParallelShardedEngine)
        for query in queries[:8]:
            qid = query.query_id
            assert [d.doc_id for d in restored.results(qid)] == [
                d.doc_id for d in oracle.results(qid)
            ]
        # The restored engine keeps processing identically.
        log_oracle = note_log(oracle.publish_batch(docs[60:90]))
        log_restored = note_log(restored.publish_batch(docs[60:90]))
        assert log_restored == log_oracle
        # Facade floors reflect the restored state (serve-after-restore).
        assert restored.doc_id_floor() == docs[89].doc_id + 1
        assert restored.query_id_floor() == queries[7].query_id + 1
        assert restored.clock_now() == oracle.shards[0].clock.now


def test_errors_cross_the_pipe(workload):
    docs, queries = workload
    with ParallelShardedEngine(N_SHARDS, config()) as parallel:
        parallel.subscribe(DasQuery(0, ["coffee"]))
        with pytest.raises(DuplicateQueryError):
            parallel.subscribe(DasQuery(0, ["coffee"]))
        with pytest.raises(UnknownQueryError):
            parallel.results(99)
        parallel.unsubscribe(0)
        with pytest.raises(UnknownQueryError):
            parallel.unsubscribe(0)


def test_closed_engine_rejects_ops():
    parallel = ParallelShardedEngine(1, config())
    parallel.close()
    with pytest.raises(WorkerCrashError):
        parallel.results(0)


def test_server_runtime_parallel_workers(workload):
    """ServerConfig.parallel_workers wraps a fresh engine; the runtime
    owns the workers (stats show them, stop() reaps them)."""
    docs, _queries = workload

    async def scenario():
        runtime = ServerRuntime(
            DasEngine(config()),
            ServerConfig(parallel_workers=N_SHARDS, drain_timeout=10.0),
        )
        engine = runtime.engine
        assert isinstance(engine, ParallelShardedEngine)
        await runtime.start()
        session = runtime.open_session()
        query_id, _initial = await runtime.subscribe(session, ["coffee"])

        async def read_to_the_end():
            # An unread outbox would make stop() wait out drain_timeout.
            while await session.next_message() is not None:
                pass

        reader = asyncio.create_task(read_to_the_end())
        acks = []
        for document in docs[:10]:
            tokens = [t for t, _c in document.vector.items()]
            acks.append(await runtime.publish(tokens=tokens + ["coffee"]))
        results = await runtime.results(query_id)
        stats = runtime.stats()
        await runtime.stop()
        await reader
        return engine, acks, results, stats

    engine, acks, results, stats = asyncio.run(
        asyncio.wait_for(scenario(), 60.0)
    )
    assert [ack["doc_id"] for ack in acks] == list(range(10))
    assert results  # every published doc contains "coffee"
    assert stats["workers"]["workers"] == N_SHARDS
    assert stats["workers"]["restarts"] == [0] * N_SHARDS
    assert stats["counters"]["docs_published"] == 10
    # stop() closed the owned engine: workers are gone.
    assert not any(handle.alive() for handle in engine._workers)


def test_parallel_workers_requires_fresh_engine():
    engine = DasEngine(config())
    engine.subscribe(DasQuery(0, ["x"]))
    with pytest.raises(ConfigurationError):
        ServerRuntime(engine, ServerConfig(parallel_workers=2))


def test_differential_telemetry_across_engine_shapes(workload):
    """ISSUE 5 satellite: the same workload through DasEngine,
    ShardedDasEngine and ParallelShardedEngine yields (a) exactly equal
    filtering-effectiveness counters for the two sharded shapes, (b)
    layout-independent counters equal across all three, and (c) worker
    histograms merged parent-side that match the in-process sharded
    aggregate span for span."""
    from repro.telemetry import (
        ENGINE_STAGES,
        CountingClock,
        Telemetry,
        effectiveness_gauges,
    )

    docs, queries = workload
    single = DasEngine(
        config(), telemetry=Telemetry(time_fn=CountingClock())
    )
    sharded = ShardedDasEngine(
        N_SHARDS, config(), telemetry=Telemetry(time_fn=CountingClock())
    )
    with ParallelShardedEngine(N_SHARDS, config()) as parallel:
        drive(single, docs, queries)
        drive(sharded, docs, queries)
        drive(parallel, docs, queries)

        # (a) Identical shard layouts do identical filtering work: the
        # merged counters agree exactly, counter for counter, and so do
        # the effectiveness gauges derived from them.
        counters_sharded = sharded.counters.as_dict()
        counters_parallel = parallel.counters.as_dict()
        assert counters_parallel == counters_sharded
        assert effectiveness_gauges(counters_parallel) == (
            effectiveness_gauges(counters_sharded)
        )

        # (b) Layout-independent counters match the single oracle too
        # (block packing legitimately shifts the layout-dependent ones).
        counters_single = single.counters.as_dict()
        for name in ("docs_published", "queries_subscribed", "matches"):
            assert counters_parallel[name] == counters_single[name]

        # (c) Parent-side histogram merge: every worker observed every
        # stage once per broadcast publish, so the merged counts equal
        # the in-process sharded engine's shared-telemetry counts —
        # N_SHARDS observations per logical document — while the single
        # engine records exactly one.
        snap_single = single.telemetry_snapshot()
        snap_sharded = sharded.telemetry_snapshot()
        snap_parallel = parallel.telemetry_snapshot()
        n_docs = counters_single["docs_published"]
        assert snap_single["spans"]["finished"] == n_docs
        assert snap_sharded["spans"]["finished"] == N_SHARDS * n_docs
        assert snap_parallel["spans"] == snap_sharded["spans"]
        for stage in ENGINE_STAGES:
            assert sum(snap_single["stages"][stage]["counts"]) == n_docs
            assert (
                sum(snap_parallel["stages"][stage]["counts"])
                == sum(snap_sharded["stages"][stage]["counts"])
                == N_SHARDS * n_docs
            )
            assert snap_parallel["stages"][stage]["sum"] >= 0.0


def test_crash_suite_is_deterministic_and_green():
    """The simulate --parallel-workers scenarios pass and reproduce."""
    from repro.simulation import run_parallel_crash_suite

    first = run_parallel_crash_suite(seed=5, ops=14, workers=2)
    assert first["ok"], first
    assert sum(first["scenarios"]["hard_kill"]["restarts"]) == 1
    assert sum(first["scenarios"]["injected_crash"]["restarts"]) == 1
    second = run_parallel_crash_suite(seed=5, ops=14, workers=2)
    assert first == second
