"""Per-layer metrics of a traced run, by ``src/repro/`` module path.

Every ``*_s`` value is the layer's *self* time over the measured phase
(its spans minus what child spans cover), so the times of one workload
add up to the measured time and ``trace.attributed_share`` says how much
of it they explain.  Counts come from the program's own public counters
(``engine.counters``, ``index_size_report()``, the server's ``stats``
op) over the same phase.  ``setup.*`` are the same spans over set-up.
"""

from __future__ import annotations

from typing import Dict

from common import RunRecord
from workloads import K, Workload

#: Span names that close on the server's event-loop thread (the engine
#: runs on the matcher thread).
_LOOP_THREAD = ("server.", "eventlog.", "loadgen.", "text.")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive(record: RunRecord, w: Workload, n_docs: int, span_cost: float) -> Dict[str, float]:
    notes = record.notes
    measured = notes["measured_spans"]
    setup = notes["setup_spans"]
    c = record.counters

    def calls(name: str) -> int:
        return measured.get(name, (0, 0.0, 0.0))[0]

    def self_s(name: str, spans=measured) -> float:
        return spans.get(name, (0, 0.0, 0.0))[2]

    refreshes = c["columnar_refreshes"] + c["scalar_refreshes"]
    batches = c["batches_vectorized"] + c["batches_scalar"]
    index = notes.get("index", {})
    layers = {
        "core.engine.publish_self_s": self_s("core.engine.publish"),
        "core.engine.subscribe_s": self_s("core.engine.subscribe"),
        "core.engine.unsubscribe_s": self_s("core.engine.unsubscribe"),
        "core.engine.unsubscribe_p50_ms": notes.get("unsubscribe_p50_ms", 0.0),
        "core.engine.publish_p90_ms": notes["publish_ms"]["p90"],
        "core.engine.publish_p99_ms": notes["publish_ms"]["p99"],
        "text.vectorize_s": self_s("text.vectorize"),
        "scoring.ps_s": self_s("scoring.ps"),
        "scoring.ps_calls": calls("scoring.ps"),
        "core.inverted_file.postings_visited": c["postings_visited"],
        "core.inverted_file.blocks_visited": c["blocks_visited"],
        "core.inverted_file.blocks_skipped": c["blocks_skipped"],
        "core.inverted_file.list_for_s": self_s("core.inverted_file.list_for"),
        "core.inverted_file.insert_s": self_s("core.inverted_file.insert"),
        "core.inverted_file.remove_s": self_s("core.inverted_file.remove"),
        "core.filtering.group_checks": c["group_checks"],
        "core.filtering.group_check_s": self_s("core.filtering.group_check"),
        "core.filtering.skip_ratio": _ratio(c["blocks_skipped"], c["group_checks"]),
        "core.blocks.refreshes": refreshes,
        "core.blocks.refresh_s": self_s("core.blocks.refresh"),
        "core.blocks.mcs_rebuild_s": self_s("core.blocks.mcs_rebuild"),
        "core.mcs.rebuilds": c["mcs_rebuilds"],
        "core.mcs.invalidations": c["mcs_invalidations"],
        "core.mcs.invalidate_s": self_s("core.mcs.invalidate"),
        "core.mcs.greedy_s": self_s("core.mcs.greedy"),
        "core.result_set.queries_evaluated": c["queries_evaluated"],
        "core.result_set.quick_rejections": c["quick_rejections"],
        "core.result_set.sim_evaluations": c["sim_evaluations"],
        "core.result_set.similarity_s": self_s("core.result_set.similarity"),
        "core.result_set.update_s": self_s("core.result_set.update"),
        "core.result_set.accept_ratio": _ratio(c["matches"], c["queries_evaluated"]),
        "core.result_set.fill_ratio": _ratio(
            index.get("result_entries", 0), K * notes.get("live_queries", 0)
        ),
        "core.agg_weights.dot_products": c["aw_dot_products"],
        "core.agg_weights.entries": index.get("aw_entries", 0),
        "core.flat_postings.prepare_s": self_s("core.flat_postings.prepare"),
        "core.flat_postings.flat_skips": c["flat_skips"],
        "core.flat_postings.compactions": c["postings_compactions"],
        "core.columnar.update_s": self_s("core.columnar.update"),
        "core.columnar.refresh_share": _ratio(c["columnar_refreshes"], refreshes),
        "kernels.vectorized_batch_share": _ratio(c["batches_vectorized"], batches),
        "core.initializer.scan_s": self_s("core.initializer.scan"),
        "stream.document_store.add_s": self_s("stream.document_store.add"),
        "stream.document_store.pin_s": self_s("stream.document_store.pin"),
        "persistence.checkpoint.snapshot_s": notes.get("checkpoint_save_s", 0.0),
        "persistence.checkpoint.restore_s": notes.get("checkpoint_restore_s", 0.0),
        "persistence.checkpoint.bytes": notes.get("checkpoint_bytes", 0),
        "server.protocol.decode_s": self_s("server.protocol.decode"),
        "server.protocol.encode_s": self_s("server.protocol.encode"),
        "eventlog.append_s": self_s("eventlog.append"),
        "eventlog.fsync_wait_s": self_s("eventlog.fsync"),
        "eventlog.outbox_s": self_s("eventlog.outbox"),
        "loadgen.decode_s": self_s("loadgen.decode"),
        "loadgen.encode_s": self_s("loadgen.encode"),
        "loadgen.late_p99_ms": notes.get("late_p99_ms", 0.0),
        "loadgen.over_limit_share": notes.get("over_limit_share", 0.0),
        "oracle.mismatches": notes.get("oracle_mismatches", 0),
        "setup.core.engine.publish_s": self_s("core.engine.publish", setup),
        "setup.core.engine.subscribe_s": self_s("core.engine.subscribe", setup),
        "setup.core.initializer.scan_s": self_s("core.initializer.scan", setup),
        "setup.core.inverted_file.insert_s": self_s("core.inverted_file.insert", setup),
        "setup.core.blocks.mcs_rebuild_s": self_s("core.blocks.mcs_rebuild", setup)
        + self_s("core.mcs.greedy", setup),
        "setup.core.result_set.s": self_s("core.result_set.similarity", setup)
        + self_s("core.result_set.update", setup),
        "setup.scoring.ps_s": self_s("scoring.ps", setup),
    }
    spans = sum(entry[0] for entry in measured.values())
    attributed = sum(entry[2] for entry in measured.values())
    busy = record.measured_wall_s
    loop_other_s = 0.0
    if w.served:
        # Phase B idles between documents: busy time is CPU plus disk
        # waits.  The event loop's own CPU outside every span (asyncio,
        # runtime and session plumbing, the client) is a residual, kept
        # out of the attributed share.
        busy = record.measured_cpu_s + self_s("eventlog.fsync")
        loop_other_s = notes["loop_cpu_s"] - sum(
            entry[2]
            for name, entry in measured.items()
            if name.startswith(_LOOP_THREAD) and name != "eventlog.fsync"
        )
    layers.update(_server_layers(notes, n_docs, loop_other_s))
    layers["trace.spans"] = spans
    layers["trace.attributed_share"] = _ratio(attributed, busy)
    layers["trace.overhead_share"] = _ratio(spans * span_cost, busy)
    return layers


def _server_layers(
    notes: Dict[str, object], n_docs: int, loop_other_s: float
) -> Dict[str, float]:
    """Deltas of the server's own ``stats`` op over the measured phases."""
    before, after = notes.get("stats_before"), notes.get("stats_after")
    names = (
        "server.runtime.ingest_wait_s", "server.runtime.micro_batch_s",
        "server.runtime.notify_s", "server.runtime.eventlog_append_s",
        "server.runtime.loop_other_s",
        "server.runtime.mean_batch_size", "server.sessions.dropped",
        "server.tcp.bytes_in_per_doc", "server.tcp.bytes_out_per_doc",
        "server.recover_s", "eventlog.fsyncs",
        "eventlog.bytes_per_record", "eventlog.replay_records_per_s",
    )
    if before is None:
        return dict.fromkeys(names, 0.0)

    def stage(name: str) -> float:
        return (
            after["telemetry"]["stages"][name]["sum"]
            - before["telemetry"]["stages"][name]["sum"]
        )

    def sessions(key: str) -> int:
        return sum(s[key] for s in after["sessions"]) - sum(
            s[key] for s in before["sessions"]
        )

    batches = after["batches"]["batches"] - before["batches"]["batches"]
    documents = after["batches"]["documents"] - before["batches"]["documents"]
    wire = notes.get("measured_bytes", {})
    values = (
        stage("ingest_queue"), stage("micro_batch"), stage("notify"),
        stage("eventlog_append"), loop_other_s, _ratio(documents, batches),
        sessions("dropped"),
        _ratio(wire.get("server.protocol.decode", 0), n_docs),
        _ratio(wire.get("server.protocol.encode", 0), n_docs),
        notes.get("recover_s", 0.0),
        after["eventlog"]["fsyncs"] - before["eventlog"]["fsyncs"],
        _ratio(notes.get("eventlog_bytes", 0), notes.get("eventlog_records", 0)),
        notes.get("replay_records_per_s", 0.0),
    )
    return dict(zip(names, values))
