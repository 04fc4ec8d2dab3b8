"""Tests for the unified telemetry layer (ISSUE 5 tentpole).

Covers the fixed-bucket latency histogram and its
wire form, deterministic trace sampling, the per-publish span lifecycle,
the derived filtering-effectiveness gauges, Prometheus text rendering,
engine threading, and the server's ``stats``/``metrics`` surface over
both transports plus the ``repro metrics`` CLI subcommand.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.config import EngineConfig
from repro.core.engine import DasEngine
from repro.core.query import DasQuery
from repro.metrics.instrumentation import Counters
from repro.stream.document import Document
from repro.telemetry import (
    BOUNDED_RATIOS,
    CountingClock,
    DEFAULT_BOUNDS,
    ENGINE_STAGES,
    LatencyHistogram,
    PIPELINE_STAGES,
    SPAN_SITES,
    Telemetry,
    TraceSampler,
    effectiveness_gauges,
    render_exposition,
    resolve_span_sites,
)
from repro.text.vectors import TermVector


def doc(doc_id, terms, t=None):
    return Document(
        doc_id, TermVector({term: 1 for term in terms}), float(doc_id if t is None else t)
    )


# -- histogram -------------------------------------------------------------


def test_histogram_buckets_and_bounds():
    histogram = LatencyHistogram(bounds=(0.1, 1.0, 10.0))
    for value in (0.05, 0.1, 0.5, 5.0, 100.0):
        histogram.observe(value)
    # bisect_left puts a value equal to a bound in that bound's bucket
    # (Prometheus `le` semantics: bucket counts values <= bound).
    assert histogram.counts == [2, 1, 1, 1]
    assert histogram.count == 5
    assert histogram.sum == pytest.approx(105.65)
    assert histogram.cumulative() == [2, 3, 4, 5]
    with pytest.raises(ValueError):
        histogram.observe(-0.1)
    with pytest.raises(ValueError):
        LatencyHistogram(bounds=(1.0, 1.0))
    with pytest.raises(ValueError):
        LatencyHistogram(bounds=())


def test_histogram_wire_round_trip():
    histogram = LatencyHistogram()
    for value in (1e-5, 0.5, 3.0):
        histogram.observe(value)
    back = LatencyHistogram.from_wire(histogram.to_wire())
    assert back == histogram
    assert back.count == 3
    assert back != LatencyHistogram()
    with pytest.raises(ValueError):
        LatencyHistogram.from_wire(
            {"bounds": [1.0], "counts": [1], "sum": 0.0}
        )


def test_default_bounds_shape():
    assert list(DEFAULT_BOUNDS) == sorted(DEFAULT_BOUNDS)
    assert DEFAULT_BOUNDS[0] <= 1e-6
    assert DEFAULT_BOUNDS[-1] >= 1.0


# -- sampling --------------------------------------------------------------


def test_sampler_is_deterministic_and_rate_bounded():
    sampler = TraceSampler(seed=7, rate=0.25)
    first = [sampler.sampled(doc_id) for doc_id in range(400)]
    second = [
        TraceSampler(seed=7, rate=0.25).sampled(doc_id)
        for doc_id in range(400)
    ]
    assert first == second  # pure function of (seed, doc_id)
    rate = sum(first) / len(first)
    assert 0.1 < rate < 0.45  # crc32 is roughly uniform

    different = [
        TraceSampler(seed=8, rate=0.25).sampled(doc_id)
        for doc_id in range(400)
    ]
    assert first != different  # the seed matters

    assert not any(
        TraceSampler(seed=7, rate=0.0).sampled(i) for i in range(50)
    )
    assert all(
        TraceSampler(seed=7, rate=1.0).sampled(i) for i in range(50)
    )
    with pytest.raises(ValueError):
        TraceSampler(rate=1.5)


def test_counting_clock_is_deterministic():
    clock = CountingClock()
    assert clock() == pytest.approx(1e-6)
    assert clock() == pytest.approx(2e-6)
    other = CountingClock(step=0.001)
    assert other() == pytest.approx(0.001)


# -- effectiveness ---------------------------------------------------------


def test_effectiveness_zero_denominators():
    gauges = effectiveness_gauges(Counters())
    assert all(value == 0.0 for value in gauges.values())
    for name in BOUNDED_RATIOS:
        assert name in gauges


def test_effectiveness_ratios():
    counters = Counters(
        docs_published=10,
        postings_visited=40,
        blocks_visited=6,
        blocks_skipped=2,
        group_checks=8,
        group_checks_deferred=24,
        queries_evaluated=20,
        quick_rejections=5,
        sim_evaluations=30,
        aw_dot_products=24,
        matches=10,
    )
    gauges = effectiveness_gauges(counters)
    assert gauges["blocks_skipped_ratio"] == pytest.approx(2 / 8)
    assert gauges["quick_rejection_ratio"] == pytest.approx(5 / 20)
    assert gauges["sim_evals_per_match"] == pytest.approx(3.0)
    assert gauges["postings_per_doc"] == pytest.approx(4.0)
    assert gauges["group_check_skip_ratio"] == pytest.approx(2 / 8)
    assert gauges["group_check_engagement"] == pytest.approx(8 / 32)
    assert gauges["match_rate"] == pytest.approx(0.5)
    # Promotion and fill dots count too, so this one may exceed 1.
    assert gauges["aw_dots_per_evaluation"] == pytest.approx(1.2)
    assert "aw_dots_per_evaluation" not in BOUNDED_RATIOS
    # A plain dict works too (merged counters cross the wire as dicts).
    assert effectiveness_gauges(counters.as_dict()) == gauges
    for name in BOUNDED_RATIOS:
        assert 0.0 <= gauges[name] <= 1.0
    # Counter dicts written before the backoff existed lack the deferred
    # count: every boundary they saw was checked.
    legacy = counters.as_dict()
    del legacy["group_checks_deferred"]
    assert effectiveness_gauges(legacy)["group_check_engagement"] == 1.0


# -- Telemetry lifecycle ---------------------------------------------------


def test_publish_lifecycle_and_trace_capture():
    telemetry = Telemetry(
        time_fn=CountingClock(), sample_rate=1.0, trace_capacity=4
    )
    counters = Counters()
    observation = telemetry.begin_publish(0, counters)
    observation.add("group_filter", 2e-6)
    counters.postings_visited += 3
    counters.matches += 1
    telemetry.end_publish(observation, counters)

    snapshot = telemetry.snapshot()
    assert snapshot["spans"] == {
        "started": 1, "finished": 1, "aborted": 0, "sampled": 1,
    }
    for stage in ENGINE_STAGES:
        assert sum(snapshot["stages"][stage]["counts"]) == 1

    (trace,) = telemetry.traces
    assert trace["doc_id"] == 0
    assert trace["root"] == "publish"
    by_stage = {span["name"]: span["counters"] for span in trace["stages"]}
    assert by_stage["postings_traversal"] == {"postings_visited": 3}
    assert by_stage["result_update"] == {"matches": 1}
    assert by_stage["group_filter"] == {}  # zero deltas are elided


def test_abort_keeps_ledger_balanced():
    telemetry = Telemetry(time_fn=CountingClock(), sample_rate=0.0)
    counters = Counters()
    observation = telemetry.begin_publish(1, counters)
    telemetry.abort_publish(observation)
    spans = telemetry.span_counts()
    assert spans["started"] == spans["finished"] + spans["aborted"] == 1
    # Aborted publishes leave no histogram observation behind.
    assert all(
        sum(wire["counts"]) == 0
        for wire in telemetry.snapshot()["stages"].values()
    )


def test_trace_ring_is_bounded():
    telemetry = Telemetry(
        time_fn=CountingClock(), sample_rate=1.0, trace_capacity=3
    )
    counters = Counters()
    for doc_id in range(10):
        observation = telemetry.begin_publish(doc_id, counters)
        telemetry.end_publish(observation, counters)
    assert len(telemetry.traces) == 3
    assert [trace["doc_id"] for trace in telemetry.traces] == [7, 8, 9]
    assert telemetry.span_counts()["sampled"] == 10


# -- Prometheus rendering --------------------------------------------------


def test_render_exposition_format():
    telemetry = Telemetry(time_fn=CountingClock(), sample_rate=0.0)
    counters = Counters(docs_published=4, matches=2, queries_evaluated=8)
    observation = telemetry.begin_publish(0, counters)
    telemetry.end_publish(observation, counters)
    snapshot = telemetry.snapshot()
    text = render_exposition(
        counters.as_dict(),
        snapshot["stages"],
        snapshot["spans"],
        effectiveness_gauges(counters),
        gauges={"repro_sessions_open": 3},
    )
    assert text.endswith("\n")
    lines = text.splitlines()
    assert "repro_engine_docs_published_total 4" in lines
    assert 'repro_publish_spans_total{state="finished"} 1' in lines
    assert 'repro_filtering_effectiveness{ratio="match_rate"} 0.25' in lines
    assert "repro_sessions_open 3" in lines
    assert any(
        line.startswith(
            'repro_stage_latency_seconds_bucket{stage="group_filter",le='
        )
        for line in lines
    )
    assert (
        'repro_stage_latency_seconds_bucket{stage="group_filter",le="+Inf"} 1'
        in lines
    )
    assert 'repro_stage_latency_seconds_count{stage="group_filter"} 1' in lines
    # Two renders of the same snapshot are byte-equal.
    again = render_exposition(
        counters.as_dict(),
        snapshot["stages"],
        snapshot["spans"],
        effectiveness_gauges(counters),
        gauges={"repro_sessions_open": 3},
    )
    assert again == text


# -- engine threading ------------------------------------------------------


def test_engine_observes_every_publish_once():
    telemetry = Telemetry(time_fn=CountingClock(), sample_rate=1.0)
    engine = DasEngine(
        EngineConfig(k=2, block_size=4),
        telemetry=telemetry,
    )
    engine.subscribe(DasQuery(0, ("apple", "banana")))
    engine.subscribe(DasQuery(1, ("apple", "cherry")))
    n_docs = 8
    for doc_id in range(n_docs):
        engine.publish(doc(doc_id, ("apple", "banana", f"w{doc_id % 3}")))
    snapshot = engine.telemetry_snapshot()
    assert snapshot["spans"]["started"] == n_docs
    assert snapshot["spans"]["finished"] == n_docs
    assert snapshot["spans"]["aborted"] == 0
    for stage in ENGINE_STAGES:
        assert sum(snapshot["stages"][stage]["counts"]) == n_docs
    # Traces carry the counter deltas of the engine's actual work.
    assert len(telemetry.traces) == n_docs
    total_matches = sum(
        span["counters"].get("matches", 0)
        for trace in telemetry.traces
        for span in trace["stages"]
    )
    assert total_matches == engine.counters.matches


def test_engine_without_telemetry_snapshots_none():
    engine = DasEngine(EngineConfig(k=2))
    assert engine.telemetry is None
    assert engine.telemetry_snapshot() is None
    engine.attach_telemetry(Telemetry(time_fn=CountingClock()))
    engine.publish(doc(0, ("apple",)))
    assert engine.telemetry_snapshot()["spans"]["finished"] == 1


# -- server surface --------------------------------------------------------


def _publish_workload(client):
    async def inner():
        await client.subscribe(["apple", "banana"])
        for index in range(6):
            await client.publish(tokens=["apple", "banana", f"w{index}"])
    return inner()


def test_stats_and_metrics_in_process():
    from repro.config import ServerConfig
    from repro.server import ServerRuntime
    from repro.server.inprocess import InProcessClient

    async def scenario():
        # The client never reads its notifications; draining to it is
        # not under test.
        runtime = ServerRuntime(
            DasEngine(EngineConfig(k=3)), ServerConfig(drain_timeout=0.1)
        )
        await runtime.start()
        client = InProcessClient(runtime)
        await _publish_workload(client)
        stats = await client.stats()
        text = await client.metrics()
        await runtime.stop()
        return stats, text

    stats, text = asyncio.run(scenario())
    telemetry = stats["telemetry"]
    # Engine stages and pipeline stages in one unified stats surface.
    for stage in ENGINE_STAGES + PIPELINE_STAGES:
        assert stage in telemetry["stages"]
    for stage in ENGINE_STAGES:
        assert sum(telemetry["stages"][stage]["counts"]) == 6
    assert sum(telemetry["stages"]["ingest_queue"]["counts"]) == 6
    assert telemetry["spans"]["finished"] == 6
    for name in BOUNDED_RATIOS:
        assert 0.0 <= telemetry["effectiveness"][name] <= 1.0
    assert telemetry["effectiveness"]["match_rate"] > 0.0

    assert "repro_engine_docs_published_total 6" in text
    assert 'repro_publish_spans_total{state="finished"} 6' in text
    assert 'stage="ingest_queue"' in text
    assert 'stage="postings_traversal"' in text
    assert "repro_ingest_queue_depth 0" in text


def test_stats_and_metrics_over_tcp():
    from repro.server import NdjsonTcpClient, NdjsonTcpServer, ServerRuntime

    async def scenario():
        runtime = ServerRuntime(DasEngine(EngineConfig(k=3)))
        await runtime.start()
        server = NdjsonTcpServer(runtime)
        host, port = await server.start()
        client = await NdjsonTcpClient.connect(host, port)
        await _publish_workload(client)
        stats = await client.stats()
        text = await client.metrics()
        await client.close()
        await server.stop()
        await runtime.stop()
        return stats, text

    stats, text = asyncio.run(asyncio.wait_for(scenario(), 30.0))
    telemetry = stats["telemetry"]
    # The JSON round trip preserves the full telemetry section.
    for stage in ENGINE_STAGES + PIPELINE_STAGES:
        assert stage in telemetry["stages"]
    assert telemetry["spans"]["finished"] == 6
    assert "repro_filtering_effectiveness" in text
    assert "repro_stage_latency_seconds_bucket" in text
    assert text.endswith("\n")


def test_metrics_cli_subcommand():
    from repro.experiments.cli import _metrics, build_parser, build_serve_runtime

    args = build_parser().parse_args(
        ["serve", "--port", "0", "--method", "GIFilter", "--k", "3"]
    )

    async def scenario():
        runtime, server = build_serve_runtime(args)
        await runtime.start()
        host, port = await server.start()
        client_args = build_parser().parse_args(
            ["metrics", "--host", host, "--port", str(port)]
        )
        text = await _metrics(client_args)
        await server.stop()
        await runtime.stop()
        return text

    text = asyncio.run(asyncio.wait_for(scenario(), 30.0))
    assert "repro_engine_docs_published_total 0" in text
    assert "repro_publish_spans_total" in text


def test_metrics_op_rejected_before_parse_fix():
    from repro.server.protocol import REQUEST_OPS, parse_request

    assert "metrics" in REQUEST_OPS
    assert parse_request({"op": "metrics"}) == {"op": "metrics"}


# -- span sites -----------------------------------------------------------------


def test_every_span_site_resolves():
    """Each traced callable is in its owner's own ``vars()`` — what a
    tracer swaps — so deleting or renaming one fails here rather than in
    a traced benchmark run."""
    resolved = resolve_span_sites()
    assert len(resolved) == len(SPAN_SITES)
    for owner, attribute, layer in resolved:
        original = vars(owner)[attribute]
        if isinstance(original, classmethod):
            original = original.__func__
        assert callable(original), (owner, attribute)
        assert layer.split(".")[0] in {
            "core", "scoring", "text", "stream", "server", "eventlog",
        }
    # Subscribe scoring is scoring, not initializer or subscribe time.
    assert (
        "repro.scoring.relevance:LanguageModelScorer", "trels", "scoring.ps"
    ) in SPAN_SITES


def test_a_missing_span_site_names_itself(monkeypatch):
    import repro.telemetry as telemetry_module

    gone = ("repro.core.result_set:QueryResultSet", "_extend_rows", "x.y")
    monkeypatch.setattr(telemetry_module, "SPAN_SITES", SPAN_SITES + (gone,))
    with pytest.raises(KeyError, match="QueryResultSet._extend_rows"):
        telemetry_module.resolve_span_sites()
