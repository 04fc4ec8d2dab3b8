"""Unified telemetry: stage histograms, spans, effectiveness.

One :class:`Telemetry` instance observes every publish an engine
processes.  The engine calls :meth:`Telemetry.begin_publish` /
:meth:`Telemetry.end_publish` around its Algorithm 2 hot path and
attributes elapsed time to the filtering stages as it runs; end_publish
folds the stage times into fixed-bucket latency histograms (one
observation per stage per publish, so histogram counts are an exact
function of documents processed) and, for deterministically sampled
documents, materialises a span tree of per-stage counter deltas into a
bounded trace ring.

Determinism contract (the simulation harness and golden-trace tests
rely on it):

* sampling is a pure function of ``(seed, doc_id)`` — see
  :class:`~repro.telemetry.spans.TraceSampler`;
* with a :class:`CountingClock` as ``time_fn`` no wall-clock value ever
  enters a histogram, so snapshots are byte-reproducible.

The serving pipeline's stages (ingest queue wait, micro-batch execution,
notification fan-out) live runtime-side in
:class:`~repro.server.runtime.ServerRuntime` over the same histogram
primitive and are merged into the same stats surface.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, Optional

from repro.metrics.instrumentation import Counters
from repro.telemetry.effectiveness import (
    BOUNDED_RATIOS,
    effectiveness_gauges,
)
from repro.telemetry.histogram import DEFAULT_BOUNDS, LatencyHistogram
from repro.telemetry.prometheus import render_exposition
from repro.telemetry.spans import PublishObservation, TraceSampler

#: Engine-side stages of one publish, in pipeline order.  Every stage is
#: observed exactly once per publish; ``postings_traversal`` is the
#: publish total minus the explicitly timed stages.
ENGINE_STAGES = (
    "postings_traversal",
    "group_filter",
    "individual_filter",
    "result_update",
)

#: Runtime-side stages measured by the serving pipeline.
#: ``eventlog_append`` (WAL append+fsync per micro-batch) and
#: ``throttle_wait`` (per-publish token-bucket delay) only observe when
#: the durability tier is enabled.
PIPELINE_STAGES = (
    "ingest_queue",
    "micro_batch",
    "notify",
    "eventlog_append",
    "throttle_wait",
)

#: Which work counters each engine stage moves (for span counter deltas).
STAGE_COUNTERS = {
    "postings_traversal": (
        "postings_visited",
        "blocks_visited",
        "blocks_skipped",
    ),
    "group_filter": ("group_checks", "group_checks_deferred", "mcs_rebuilds"),
    "individual_filter": (
        "queries_evaluated",
        "quick_rejections",
        "sim_evaluations",
        "sim_cache_hits",
        "aw_dot_products",
    ),
    "result_update": ("matches", "mcs_invalidations"),
}

#: The callables a span tracer times, as ``(owner, attribute, layer)``:
#: ``owner`` is a dotted module path, with ``:Class`` for a class
#: attribute, and ``attribute`` must be in that owner's own ``vars()``
#: (a tracer swaps ``vars(owner)[attribute]``).  Owners are strings, so
#: this package imports none of them; :func:`resolve_span_sites` imports
#: them when asked.  A module-level owner is the module the caller looks
#: the name up in, which is not always where it is defined.
SPAN_SITES = (
    ("repro.core.engine:DasEngine", "publish", "core.engine.publish"),
    ("repro.core.engine:DasEngine", "publish_batch", "core.engine.publish"),
    ("repro.core.engine:DasEngine", "subscribe", "core.engine.subscribe"),
    ("repro.core.engine:DasEngine", "unsubscribe", "core.engine.unsubscribe"),
    ("repro.core.engine", "select_initial_documents", "core.initializer.scan"),
    (
        "repro.scoring.relevance:LanguageModelScorer",
        "trel_from_ps",
        "scoring.ps",
    ),
    ("repro.scoring.relevance:LanguageModelScorer", "trel", "scoring.ps"),
    ("repro.scoring.relevance:LanguageModelScorer", "trels", "scoring.ps"),
    ("repro.stream.document:Document", "from_tokens", "text.vectorize"),
    (
        "repro.core.inverted_file:QueryInvertedFile",
        "list_for",
        "core.inverted_file.list_for",
    ),
    (
        "repro.core.inverted_file:QueryInvertedFile",
        "insert",
        "core.inverted_file.insert",
    ),
    (
        "repro.core.inverted_file:QueryInvertedFile",
        "remove",
        "core.inverted_file.remove",
    ),
    (
        "repro.core.engine",
        "block_threshold_lower_bound",
        "core.filtering.group_check",
    ),
    (
        "repro.core.engine",
        "block_trel_upper_bound",
        "core.filtering.group_check",
    ),
    (
        "repro.core.engine",
        "block_similarity_lower_bound",
        "core.filtering.group_check",
    ),
    ("repro.core.engine", "group_filters_out", "core.filtering.group_check"),
    (
        "repro.core.blocks:PostingsBlock",
        "refresh_metadata",
        "core.blocks.refresh",
    ),
    (
        "repro.core.blocks:PostingsBlock",
        "refresh_from_columns",
        "core.blocks.refresh",
    ),
    (
        "repro.core.blocks:PostingsBlock",
        "rebuild_mcs",
        "core.blocks.mcs_rebuild",
    ),
    (
        "repro.core.blocks:PostingsBlock",
        "invalidate_mcs_with",
        "core.mcs.invalidate",
    ),
    ("repro.core.blocks", "greedy_mcs_gen", "core.mcs.greedy"),
    (
        "repro.core.result_set:QueryResultSet",
        "dr_oldest",
        "core.result_set.similarity",
    ),
    (
        "repro.core.result_set:QueryResultSet",
        "similarity_sum",
        "core.result_set.similarity",
    ),
    (
        "repro.core.result_set:QueryResultSet",
        "similarities_to",
        "core.result_set.similarity",
    ),
    (
        "repro.core.result_set:QueryResultSet",
        "similarities_to_kept",
        "core.result_set.similarity",
    ),
    (
        "repro.core.result_set:QueryResultSet",
        "admit",
        "core.result_set.update",
    ),
    (
        "repro.core.result_set:QueryResultSet",
        "replace",
        "core.result_set.update",
    ),
    (
        "repro.core.flat_postings:FlatPostingsIndex",
        "prepare",
        "core.flat_postings.prepare",
    ),
    (
        "repro.core.columnar:QuerySummaryColumns",
        "update",
        "core.columnar.update",
    ),
    (
        "repro.stream.document_store:DocumentStore",
        "add",
        "stream.document_store.add",
    ),
    (
        "repro.stream.document_store:DocumentStore",
        "pin",
        "stream.document_store.pin",
    ),
    (
        "repro.stream.document_store:DocumentStore",
        "unpin",
        "stream.document_store.pin",
    ),
    ("repro.server.runtime", "parse_request", "server.protocol.decode"),
    ("repro.server.runtime", "notification_payload", "server.protocol.encode"),
    ("repro.server.runtime", "document_payload", "server.protocol.encode"),
    ("repro.eventlog:SubscriberRegistry", "offer", "eventlog.outbox"),
    ("repro.eventlog:EventLog", "append_many", "eventlog.append"),
    # Waiting for the disk, apart from the append's own work.
    ("os", "fsync", "eventlog.fsync"),
)


def resolve_span_sites():
    """``(owner object, attribute, layer)`` for every :data:`SPAN_SITES`
    entry, importing each owner's module; raises ``KeyError`` naming a
    site whose attribute its owner no longer defines."""
    import importlib

    resolved = []
    for dotted, attribute, layer in SPAN_SITES:
        module, _, class_name = dotted.partition(":")
        owner = importlib.import_module(module)
        if class_name:
            owner = getattr(owner, class_name)
        if attribute not in vars(owner):
            raise KeyError(f"span site {dotted}.{attribute} ({layer}) is gone")
        resolved.append((owner, attribute, layer))
    return resolved


class CountingClock:
    """A clock that advances one fixed step per reading.

    Substituting this for ``time.perf_counter`` makes every duration a
    pure function of *how many clock readings* the code path performed —
    deterministic across hosts and runs — while still landing in real
    histogram buckets (the default step is one microsecond).
    """

    __slots__ = ("_ticks", "_step")

    def __init__(self, step: float = 1e-6) -> None:
        self._ticks = 0
        self._step = float(step)

    def __call__(self) -> float:
        self._ticks += 1
        return self._ticks * self._step


class Telemetry:
    """Per-engine telemetry: stage histograms, span accounting, traces."""

    def __init__(
        self,
        time_fn: Optional[Callable[[], float]] = None,
        sample_rate: float = 1.0 / 16.0,
        seed: int = 0,
        trace_capacity: int = 64,
    ) -> None:
        self._time = time_fn if time_fn is not None else time.perf_counter
        self.sampler = TraceSampler(seed, sample_rate)
        self._stage_histograms = {
            stage: LatencyHistogram() for stage in ENGINE_STAGES
        }
        self._spans_started = 0
        self._spans_finished = 0
        self._spans_aborted = 0
        self._spans_sampled = 0
        #: Most recent sampled traces (bounded; excluded from snapshots).
        self.traces = deque(maxlen=trace_capacity)

    # -- publish lifecycle -------------------------------------------------

    def begin_publish(
        self, doc_id: int, counters: Counters
    ) -> PublishObservation:
        """Open the observation for one publish (engine hot path)."""
        self._spans_started += 1
        baseline = (
            counters.as_dict() if self.sampler.sampled(doc_id) else None
        )
        return PublishObservation(doc_id, self._time, baseline)

    def end_publish(
        self, observation: PublishObservation, counters: Counters
    ) -> None:
        """Close one publish: observe stage histograms, capture a trace."""
        total = self._time() - observation.started_at
        timed = sum(observation.stage_seconds.values())
        traversal = total - timed
        if traversal < 0.0:
            traversal = 0.0
        self._stage_histograms["postings_traversal"].observe(traversal)
        for stage in ENGINE_STAGES[1:]:
            self._stage_histograms[stage].observe(
                observation.stage_seconds.get(stage, 0.0)
            )
        self._spans_finished += 1
        if observation.baseline is not None:
            self._spans_sampled += 1
            self.traces.append(
                self._build_trace(observation, counters.as_dict())
            )

    def abort_publish(self, observation: PublishObservation) -> None:
        """A publish raised mid-flight; keep the span ledger balanced."""
        self._spans_aborted += 1

    @staticmethod
    def _build_trace(
        observation: PublishObservation, after: Dict[str, int]
    ) -> Dict:
        """Span tree of one sampled publish: stage -> counter deltas.

        Durations are intentionally excluded — the golden-trace test
        compares structurally, and counter deltas are exact while
        durations are host noise under a wall clock.
        """
        baseline = observation.baseline
        delta = {
            name: after[name] - baseline[name] for name in after
        }
        return {
            "doc_id": observation.doc_id,
            "root": "publish",
            "stages": [
                {
                    "name": stage,
                    "counters": {
                        name: delta[name]
                        for name in STAGE_COUNTERS[stage]
                        if delta[name]
                    },
                }
                for stage in ENGINE_STAGES
            ],
        }

    # -- aggregation -------------------------------------------------------

    def span_counts(self) -> Dict[str, int]:
        return {
            "started": self._spans_started,
            "finished": self._spans_finished,
            "aborted": self._spans_aborted,
            "sampled": self._spans_sampled,
        }

    def snapshot(self) -> Dict:
        """JSON-safe snapshot (traces excluded, see module doc)."""
        return {
            "stages": {
                stage: histogram.to_wire()
                for stage, histogram in self._stage_histograms.items()
            },
            "spans": self.span_counts(),
        }


def empty_snapshot() -> Dict:
    """The snapshot of an engine without telemetry."""
    return {
        "stages": {},
        "spans": {"started": 0, "finished": 0, "aborted": 0, "sampled": 0},
    }


__all__ = [
    "BOUNDED_RATIOS",
    "CountingClock",
    "DEFAULT_BOUNDS",
    "ENGINE_STAGES",
    "LatencyHistogram",
    "PIPELINE_STAGES",
    "PublishObservation",
    "STAGE_COUNTERS",
    "Telemetry",
    "TraceSampler",
    "effectiveness_gauges",
    "empty_snapshot",
    "render_exposition",
]
