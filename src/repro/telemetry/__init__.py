"""Unified telemetry: work counters, stage histograms, spans, effectiveness.

One :class:`Telemetry` instance observes every publish an engine
processes.  The engine calls :meth:`Telemetry.begin_publish` /
:meth:`Telemetry.end_publish` around its Algorithm 2 hot path and
attributes elapsed time to the filtering stages as it runs; end_publish
folds the stage times into fixed-bucket latency histograms (one
observation per stage per publish, so histogram counts are an exact
function of documents processed).  With a :class:`CountingClock` as
``time_fn`` no wall-clock value ever enters a histogram, so snapshots
are byte-reproducible (the simulation harness relies on it).

The serving pipeline's stages (ingest queue wait, micro-batch execution,
notification fan-out) live runtime-side in
:class:`~repro.server.runtime.ServerRuntime` over the same histogram
primitive and are merged into the same stats surface.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Callable, Dict, Optional

from repro.telemetry.effectiveness import (
    BOUNDED_RATIOS,
    effectiveness_gauges,
)
from repro.telemetry.histogram import (
    DEFAULT_BOUNDS,
    BatchHistogram,
    LatencyHistogram,
)
from repro.telemetry.prometheus import render_exposition
from repro.telemetry.spans import PublishObservation


@dataclass
class Counters:
    """Mutable work counters; engines increment these on their hot paths.

    Machine-independent accounting of the work a publish did (postings
    visited, blocks skipped, similarity evaluations, ...): pure-Python
    wall-clock numbers are a poor proxy for the paper's Java
    measurements (DESIGN.md §2), so the figures report both.
    """

    docs_published: int = 0
    queries_subscribed: int = 0
    postings_visited: int = 0
    blocks_visited: int = 0
    blocks_skipped: int = 0
    group_checks: int = 0
    #: Block boundaries passed with no check while the engine's
    #: group-check backoff sat them out (``group_checks`` counts only
    #: checks actually run).
    group_checks_deferred: int = 0
    queries_evaluated: int = 0
    #: Evaluations dismissed before the Lemma 6 dot (relevance + keyword
    #: floor).
    quick_rejections: int = 0
    sim_evaluations: int = 0
    #: Of ``sim_evaluations``, the values served by the publish-scoped
    #: cosine cache instead of being computed.
    sim_cache_hits: int = 0
    aw_dot_products: int = 0
    matches: int = 0
    #: Of ``matches``, those that replaced the oldest result of a full
    #: query; the rest are warm-up admits.
    replacements: int = 0
    mcs_rebuilds: int = 0
    mcs_invalidations: int = 0
    #: ``batches_vectorized``, ``batches_scalar``, ``columnar_refreshes``,
    #: ``flat_skips`` and ``postings_compactions`` stay zero (one cosine
    #: kernel and no mirror, DESIGN.md §7/§12/§15); kept because
    #: ``benchmarks/e2e/layers.py`` reads them by name.
    batches_vectorized: int = 0
    batches_scalar: int = 0
    columnar_refreshes: int = 0
    scalar_refreshes: int = 0
    flat_skips: int = 0
    postings_compactions: int = 0
    window_expiries: int = 0
    window_promotions: int = 0
    cells_visited: int = 0
    cells_skipped: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def snapshot(self) -> "Counters":
        return Counters(**self.as_dict())

    def delta(self, earlier: "Counters") -> "Counters":
        """Counters accumulated since ``earlier`` (self - earlier)."""
        return Counters(
            **{
                name: value - getattr(earlier, name)
                for name, value in self.as_dict().items()
            }
        )

    def load(self, values: Dict[str, int]) -> None:
        """Overwrite every counter from a dict (checkpoint restore).

        Unknown keys are ignored so newer checkpoints stay loadable;
        fields absent from ``values`` keep their current value.
        """
        for f in fields(self):
            if f.name in values:
                setattr(self, f.name, int(values[f.name]))


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
    """Per-engine telemetry: stage histograms and span accounting."""

    def __init__(self, time_fn: Optional[Callable[[], float]] = None) -> None:
        self._time = time_fn if time_fn is not None else time.perf_counter
        self._stage_histograms = {
            stage: LatencyHistogram() for stage in ENGINE_STAGES
        }
        self._spans_started = 0
        self._spans_finished = 0
        self._spans_aborted = 0

    # -- publish lifecycle -------------------------------------------------

    def begin_publish(self) -> PublishObservation:
        """Open the observation for one publish (engine hot path)."""
        self._spans_started += 1
        return PublishObservation(self._time)

    def end_publish(self, observation: PublishObservation) -> None:
        """Close one publish: observe its stage histograms."""
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

    def abort_publish(self, observation: PublishObservation) -> None:
        """A publish raised mid-flight; keep the span ledger balanced."""
        self._spans_aborted += 1

    # -- aggregation -------------------------------------------------------

    def span_counts(self) -> Dict[str, int]:
        return {
            "started": self._spans_started,
            "finished": self._spans_finished,
            "aborted": self._spans_aborted,
        }

    def snapshot(self) -> Dict:
        """JSON-safe snapshot."""
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
        "spans": {"started": 0, "finished": 0, "aborted": 0},
    }


__all__ = [
    "BOUNDED_RATIOS",
    "BatchHistogram",
    "CountingClock",
    "Counters",
    "DEFAULT_BOUNDS",
    "ENGINE_STAGES",
    "LatencyHistogram",
    "PIPELINE_STAGES",
    "PublishObservation",
    "Telemetry",
    "effectiveness_gauges",
    "empty_snapshot",
    "render_exposition",
]
