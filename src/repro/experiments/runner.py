"""Experiment runner: drive an engine through a workload and measure.

``run_method`` is the basic building block used by every figure: load
history, subscribe the query set (timed — Figures 4(b), 5(b), 7(b)),
publish a settle-in segment, then publish the measured segment with
per-document timing and counter deltas.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.workload import Workload
from repro.telemetry import Counters


@dataclass
class MethodRun:
    """Measurements of one engine over one workload."""

    method: str
    #: Mean wall-clock milliseconds per published document (measured
    #: segment only).
    doc_ms: float
    #: Mean wall-clock milliseconds per query insertion.
    insert_ms: float
    #: Work counters accumulated over the measured segment.
    counters: Counters
    #: Per-interval mean doc-processing ms (Figure 4's time axis).
    interval_doc_ms: List[float] = field(default_factory=list)
    #: Structural index report at the end of the run (None for engines
    #: without an index_size_report).
    index_report: Optional[Dict[str, int]] = None

    @property
    def blocks_skipped_ratio(self) -> float:
        total = self.counters.blocks_skipped + self.counters.blocks_visited
        return self.counters.blocks_skipped / total if total else 0.0


def run_method(
    workload: Workload,
    engine_factory: Callable[[], object],
    method_label: str,
    n_intervals: int = 4,
) -> MethodRun:
    """Run one engine through the workload's three stream segments."""
    engine = engine_factory()
    for document in workload.history:
        engine.publish(document)

    insert_start = time.perf_counter()
    for query in workload.queries:
        engine.subscribe(query)
    insert_seconds = time.perf_counter() - insert_start

    for document in workload.settle:
        engine.publish(document)

    counters_before = engine.counters.snapshot()
    measured = workload.measure
    interval_doc_ms: List[float] = []
    interval_size = max(1, len(measured) // n_intervals)
    total_seconds = 0.0
    for start in range(0, len(measured), interval_size):
        chunk = measured[start : start + interval_size]
        chunk_start = time.perf_counter()
        for document in chunk:
            engine.publish(document)
        chunk_seconds = time.perf_counter() - chunk_start
        total_seconds += chunk_seconds
        interval_doc_ms.append(1000.0 * chunk_seconds / len(chunk))

    counters = engine.counters.delta(counters_before)
    index_report = None
    if hasattr(engine, "index_size_report"):
        index_report = engine.index_size_report()
    return MethodRun(
        method=method_label,
        doc_ms=1000.0 * total_seconds / max(1, len(measured)),
        insert_ms=1000.0 * insert_seconds / max(1, len(workload.queries)),
        counters=counters,
        interval_doc_ms=interval_doc_ms,
        index_report=index_report,
    )


def run_das_methods(
    workload: Workload,
    methods: Sequence[str],
    n_intervals: int = 4,
) -> Dict[str, MethodRun]:
    """Run each DAS method (IRT/BIRT/IFilter/GIFilter) on the workload."""
    return {
        method: run_method(
            workload, lambda m=method: workload.make_engine(m), method, n_intervals
        )
        for method in methods
    }
