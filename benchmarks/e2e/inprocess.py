"""The three in-process workloads: a closed loop on ``DasEngine``."""

from __future__ import annotations

import os
import time
from typing import List, Optional

from repro.core.engine import DasEngine
from repro.persistence.checkpoint import load, save

import oracle
from common import (
    Change,
    RunRecord,
    SpeedGauge,
    change_of,
    latency_profile_ms,
    percentile,
    proc_status_kb,
    stream_digest,
)
from tracing import Tracer
from workloads import K, ROUNDS, Inputs, Workload

#: A speed probe closes a block after this many subscribes / steps.
SUBSCRIBES_PER_BLOCK = 200
STEPS_PER_BLOCK = 5


def run(
    w: Workload, inputs: Inputs, out_dir: str, tracer: Optional[Tracer]
) -> RunRecord:
    record = RunRecord()
    clock = time.perf_counter
    gauge = SpeedGauge()
    emitted: List[list] = []

    # -- set-up: history replay, standing subscribes, settle ---------------
    engine = DasEngine.for_method("GIFilter", k=K, block_size=w.block_size)
    for doc in inputs.history:
        engine.publish(doc)
    rss_before_kb = proc_status_kb("self", "VmRSS")
    subscribe_s: List[float] = []
    subscribe_at: List[int] = []
    for index, query in enumerate(inputs.standing):
        started = clock()
        engine.subscribe(query)
        subscribe_s.append(clock() - started)
        subscribe_at.append(gauge.block)
        if (index + 1) % SUBSCRIBES_PER_BLOCK == 0:
            gauge.close_block()
    for index, doc in enumerate(inputs.settle):
        emitted.append(engine.publish(doc))
        if (index + 1) % STEPS_PER_BLOCK == 0:
            gauge.close_block()
    gauge.close_block()
    measured_from = gauge.block
    rss_after_kb = proc_status_kb("self", "VmRSS")
    record.attempted += len(inputs.history) + len(inputs.standing) + len(inputs.settle)
    if tracer is not None:
        record.notes["setup_spans"] = tracer.take()

    # -- measured: closed loop, one call at a time -------------------------
    publish_s: List[float] = []
    publish_at: List[int] = []
    unsubscribe_s: List[float] = []
    if w.churn:
        subscribe_s, subscribe_at = [], []
    counters_before = engine.counters.snapshot()
    per_round = max(1, len(inputs.steps) // ROUNDS)
    cpu_started = time.process_time()
    round_started = clock()
    if tracer is not None:
        tracer.sampling = True
    for index, step in enumerate(inputs.steps):
        started = clock()
        notifications = engine.publish(step.doc)
        publish_s.append(clock() - started)
        publish_at.append(gauge.block)
        emitted.append(notifications)
        for query in step.subs:
            started = clock()
            engine.subscribe(query)
            subscribe_s.append(clock() - started)
            subscribe_at.append(gauge.block)
        for query_id in step.unsubs:
            started = clock()
            engine.unsubscribe(query_id)
            unsubscribe_s.append(clock() - started)
        if (index + 1) % STEPS_PER_BLOCK == 0:
            gauge.close_block()
        if (index + 1) % per_round == 0:
            now = clock()
            record.round_rates.append(per_round / (now - round_started))
            round_started = now
    gauge.close_block()
    record.measured_cpu_s = time.process_time() - cpu_started
    record.measured_wall_s = gauge.raw_seconds(measured_from)
    record.attempted += len(inputs.steps) * (1 + 2 * w.churn)
    if tracer is not None:
        tracer.sampling = False
        record.notes["measured_spans"] = tracer.take()

    metrics = record.metrics
    publish_ref_s = gauge.normalised(publish_s, publish_at)
    subscribe_ref_s = gauge.normalised(subscribe_s, subscribe_at)
    metrics["setup_s"] = gauge.seconds(0, measured_from)
    metrics["docs_per_s"] = len(inputs.steps) / gauge.seconds(measured_from)
    metrics["publish_p50_ms"] = percentile(publish_ref_s, 0.50) * 1e3
    metrics["subscribe_p50_ms"] = percentile(subscribe_ref_s, 0.50) * 1e3
    metrics["peak_rss_mb"] = proc_status_kb("self", "VmHWM") / 1024.0
    metrics["rss_per_query_kb"] = (rss_after_kb - rss_before_kb) / len(inputs.standing)
    record.notes.update(
        raw={
            "setup_s": gauge.raw_seconds(0, measured_from),
            "docs_per_s": len(inputs.steps) / record.measured_wall_s,
            "publish_ms": latency_profile_ms(publish_s),
            "subscribe_p50_ms": percentile(subscribe_s, 0.50) * 1e3,
        },
        publish_ms=latency_profile_ms(publish_ref_s),
        speed_factor_p50=percentile(gauge.factors(), 0.50),
        index=engine.index_size_report(),
        live_queries=engine.query_count,
    )
    if unsubscribe_s:
        record.notes["unsubscribe_p50_ms"] = percentile(unsubscribe_s, 0.50) * 1e3
    record.counters = engine.counters.delta(counters_before).as_dict()

    if tracer is not None:
        tracer.uninstall()
        _checkpoint_round_trip(engine, inputs, out_dir, record)

    # -- correctness -------------------------------------------------------
    changes: List[Change] = [
        change_of(n) for notifications in emitted for n in notifications
    ]
    record.digest = stream_digest(changes)
    wrong = oracle.mismatches(inputs, engine.config, w.oracle_mod, changes)
    record.notes["oracle_mismatches"] = wrong
    if wrong:
        record.errors.append(f"{wrong} changes differ from the naive oracle")
    return record


def _checkpoint_round_trip(
    engine: DasEngine, inputs: Inputs, out_dir: str, record: RunRecord
) -> None:
    """Save and load the post-run engine: the library user's recovery."""
    clock = time.perf_counter
    path = os.path.join(out_dir, f"checkpoint-{os.getpid()}.json")
    try:
        started = clock()
        save(engine, path)
        record.notes["checkpoint_save_s"] = clock() - started
        record.notes["checkpoint_bytes"] = os.path.getsize(path)
        started = clock()
        restored = load(path)
        record.notes["checkpoint_restore_s"] = clock() - started
    finally:
        if os.path.exists(path):
            os.remove(path)
    live = inputs.live_ids()
    for query_id in live[:: max(1, len(live) // 20)]:
        before = [doc.doc_id for doc in engine.results(query_id)]
        if [doc.doc_id for doc in restored.results(query_id)] != before:
            record.errors.append(f"query {query_id} differs after restore")
