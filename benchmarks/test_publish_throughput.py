"""Publish-path throughput per method × kernel backend (ISSUE: perf PR).

Drives each DAS method through the standard ``BENCH_SPEC`` workload
(history replay, subscription, settle) and then times the measured
stream segment with ``time.process_time`` — wall-clock on shared CI-class
hardware is far too noisy (±40-50 % run-to-run observed).  Each variant
gets one warm-up round plus ``MEASURE_ROUNDS`` timed rounds of fresh
stream documents; the best round is reported, which filters page-fault /
allocator-warm-up noise without hiding steady-state cost.

Artifacts:

* ``benchmarks/out/throughput.txt`` — human-readable table;
* ``BENCH_throughput.json`` at the repo root — machine-readable, so
  future PRs can track the performance trajectory.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import time

from benchmarks.common import BENCH_SPEC, bench_scale, write_output
from repro.core.query import DasQuery
from repro.experiments.workload import build_workload
from repro.kernels import numpy_available
from repro.stream.document import Document

#: Timed rounds per variant (after one untimed warm-up round).
MEASURE_ROUNDS = 2
#: Micro-batch size for the ``publish_batch`` variants.
BATCH_SIZE = 64

METHODS = ("GIFilter", "IFilter", "BIRT", "IRT")

#: Strategy modes compared by ``run_mode_suite`` (DESIGN.md §16).
MODES = ("decay", "window", "spatial")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_throughput.json")


def _scaled(spec):
    """Scale the *document* counts by ``REPRO_BENCH_SCALE``.

    Query count and k stay fixed — they set the per-document work, and
    changing them would make docs/sec incomparable with the committed
    baselines; fewer documents only shortens the measurement.
    """
    scale = bench_scale()
    if scale == 1.0:
        return spec
    return spec.evolve(
        n_history=max(128, int(spec.n_history * scale)),
        n_settle=max(16, int(spec.n_settle * scale)),
        n_measure=max(32, int(spec.n_measure * scale)),
    )


def _round_segments(workload, rounds=MEASURE_ROUNDS):
    """Warm-up segment plus ``rounds`` fresh measure-sized segments."""
    spec = workload.spec
    segments = [workload.measure]
    next_id = spec.n_history + spec.n_settle + spec.n_measure
    for _ in range(rounds):
        segments.append(
            workload.corpus.documents(
                spec.n_measure, first_id=next_id, start_time=float(next_id)
            )
        )
        next_id += spec.n_measure
    return segments


def _build_engine(workload, method, backend):
    engine = workload.make_engine(method)
    engine = type(engine)(engine.config.evolve(backend=backend))
    for document in workload.history:
        engine.publish(document)
    for query in workload.queries:
        engine.subscribe(query)
    for document in workload.settle:
        engine.publish(document)
    return engine


def _timed_rounds(engine, segments, batched):
    """Publish every segment; returns docs/sec of the timed rounds."""
    rates = []
    for index, segment in enumerate(segments):
        gc.collect()
        start = time.process_time()
        if batched:
            for offset in range(0, len(segment), BATCH_SIZE):
                engine.publish_batch(segment[offset : offset + BATCH_SIZE])
        else:
            for document in segment:
                engine.publish(document)
        elapsed = time.process_time() - start
        if index == 0:
            continue  # warm-up round
        rates.append(len(segment) / elapsed if elapsed > 0 else 0.0)
    return rates


def run_throughput_suite():
    workload = build_workload(_scaled(BENCH_SPEC))
    segments = _round_segments(workload)
    # "auto" is the shape-adaptive backend (ISSUE 4 satellite): python
    # kernels on small blocks, numpy once row counts amortise the
    # conversion — measured here against both pure backends.
    backends = ["python"] + (
        ["numpy", "auto"] if numpy_available() else []
    )
    results = {}
    for method in METHODS:
        results[method] = {}
        for backend in backends:
            variants = [(backend, False)]
            if method == "GIFilter":
                variants.append((f"{backend}_batch", True))
            for label, batched in variants:
                engine = _build_engine(workload, method, backend)
                rates = _timed_rounds(engine, segments, batched)
                results[method][label] = {
                    "docs_per_sec": max(rates),
                    "rounds": [round(rate, 1) for rate in rates],
                }
    return results


def _unit_square_point(index):
    """Deterministic low-discrepancy point in the unit square (golden
    ratio sequence) — the mode comparison must not perturb the corpus
    rng streams the decay baseline was committed against."""
    return ((index * 0.6180339887) % 1.0, (index * 0.7548776662) % 1.0)


def _located_documents(segment):
    return [
        Document(
            document.doc_id,
            document.vector,
            document.created_at,
            document.text,
            _unit_square_point(document.doc_id),
        )
        for document in segment
    ]


def run_mode_suite():
    """Strategy-mode overhead: decay vs window vs spatial (DESIGN.md §16).

    All three engines are GIFilter on the python backend (the strategy
    paths are pure python, so mixing backends would misattribute kernel
    wins to the decay mode) built from the same materialised workload.
    Spatial needs geometry: its engine gets located copies of the same
    queries/documents via a deterministic golden-ratio sequence, leaving
    the shared corpus rng streams untouched.  Timed rounds interleave
    across modes (allocator and cache drift then hits every mode
    equally) because the gated quantity is the window/decay *ratio*."""
    workload = build_workload(_scaled(BENCH_SPEC))
    segments = _round_segments(workload)
    engines = {}
    for mode in MODES:
        base = workload.make_engine("GIFilter")
        engine = type(base)(
            base.config.evolve(backend="python", mode=mode)
        )
        for document in workload.history:
            engine.publish(document)
        if mode == "spatial":
            for index, query in enumerate(workload.queries):
                engine.subscribe(
                    DasQuery(
                        query.query_id,
                        query.terms,
                        location=_unit_square_point(index),
                    )
                )
        else:
            for query in workload.queries:
                engine.subscribe(query)
        settle = (
            _located_documents(workload.settle)
            if mode == "spatial"
            else workload.settle
        )
        for document in settle:
            engine.publish(document)
        engines[mode] = engine
    rates = {mode: [] for mode in MODES}
    for index, segment in enumerate(segments):
        order = list(engines.items())
        if index % 2:
            order.reverse()
        for mode, engine in order:
            documents = (
                _located_documents(segment)
                if mode == "spatial"
                else segment
            )
            gc.collect()
            start = time.process_time()
            for document in documents:
                engine.publish(document)
            elapsed = time.process_time() - start
            if index == 0:
                continue  # warm-up round
            rates[mode].append(
                len(segment) / elapsed if elapsed > 0 else 0.0
            )
    return {
        mode: {
            "docs_per_sec": max(rates[mode]),
            "rounds": [round(rate, 1) for rate in rates[mode]],
        }
        for mode in MODES
    }


def format_table(results, modes=None):
    lines = [
        "Publish throughput (docs/sec, best of "
        f"{MEASURE_ROUNDS} process_time rounds, {BENCH_SPEC.n_queries} "
        f"queries, k={BENCH_SPEC.k})",
        f"{'method':<10} {'variant':<14} {'docs/sec':>10}  rounds",
    ]
    for method, variants in results.items():
        for label, record in variants.items():
            rounds = ", ".join(f"{rate:.1f}" for rate in record["rounds"])
            lines.append(
                f"{method:<10} {label:<14} "
                f"{record['docs_per_sec']:>10.1f}  [{rounds}]"
            )
    if modes:
        lines.append("")
        lines.append(
            "Strategy modes (GIFilter python backend, DESIGN.md §16)"
        )
        for mode, record in modes.items():
            rounds = ", ".join(f"{rate:.1f}" for rate in record["rounds"])
            lines.append(
                f"{'GIFilter':<10} {mode:<14} "
                f"{record['docs_per_sec']:>10.1f}  [{rounds}]"
            )
    return "\n".join(lines)


def test_publish_throughput():
    results = run_throughput_suite()
    # Structural validity only: every variant produced a positive rate.
    # Relative orderings are recorded in EXPERIMENTS.md, not asserted —
    # shared-hardware timings are too noisy for hard thresholds.
    for method in METHODS:
        assert results[method], method
        for label, record in results[method].items():
            assert record["docs_per_sec"] > 0.0, (method, label)

    modes = run_mode_suite()
    for mode in MODES:
        assert modes[mode]["docs_per_sec"] > 0.0, mode
    window_overhead = (
        modes["window"]["docs_per_sec"] / modes["decay"]["docs_per_sec"]
    )
    # ISSUE 10 gate: window mode stays within 2x of the decay hot path.
    # This one IS asserted despite timing noise — it is a ratio over
    # interleaved rounds, and the margin (2x vs the ~1x measured) is far
    # wider than observed round-to-round jitter.
    assert window_overhead >= 0.5, (
        f"window mode fell below half the decay throughput: "
        f"{modes['window']['docs_per_sec']:.1f} vs "
        f"{modes['decay']['docs_per_sec']:.1f} docs/sec"
    )

    gifilter = results["GIFilter"]
    speedup = None
    auto_speedup = None
    if "numpy" in gifilter:
        speedup = (
            gifilter["numpy"]["docs_per_sec"]
            / gifilter["python"]["docs_per_sec"]
        )
    if "auto" in gifilter:
        auto_speedup = (
            gifilter["auto"]["docs_per_sec"]
            / gifilter["python"]["docs_per_sec"]
        )
    payload = {
        "benchmark": "publish_throughput",
        "spec": {
            "n_queries": BENCH_SPEC.n_queries,
            "n_history": BENCH_SPEC.n_history,
            "n_settle": BENCH_SPEC.n_settle,
            "n_measure": BENCH_SPEC.n_measure,
            "k": BENCH_SPEC.k,
            "block_size": BENCH_SPEC.block_size,
            "measure_rounds": MEASURE_ROUNDS,
            "batch_size": BATCH_SIZE,
        },
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy_available": numpy_available(),
            "timer": "process_time",
        },
        "results": {
            method: {
                label: record["docs_per_sec"]
                for label, record in variants.items()
            }
            for method, variants in results.items()
        },
        "gifilter_numpy_vs_python_speedup": speedup,
        "gifilter_auto_vs_python_speedup": auto_speedup,
        "modes": {
            mode: record["docs_per_sec"] for mode, record in modes.items()
        },
        "window_overhead": window_overhead,
    }
    with open(JSON_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    write_output("throughput", format_table(results, modes))


if __name__ == "__main__":
    test_publish_throughput()
