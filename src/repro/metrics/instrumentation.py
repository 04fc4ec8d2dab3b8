"""Work counters for machine-independent performance accounting.

Pure-Python wall-clock numbers are a poor proxy for the paper's Java
measurements (see DESIGN.md §2), so every engine also counts the work it
does: postings visited, blocks skipped, similarity evaluations, and so
on.  The benchmark harness reports both.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict


@dataclass
class Counters:
    """Mutable work counters; engines increment these on their hot paths."""

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

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)


class BatchHistogram:
    """Power-of-two histogram of micro-batch sizes.

    The serving runtime coalesces pending publishes into adaptive
    micro-batches; this records the realised batch-size distribution
    (buckets ``1``, ``2``, ``3-4``, ``5-8``, ...) so operators can see
    whether batching is actually engaging under load.
    """

    def __init__(self) -> None:
        self._buckets: Dict[str, int] = {}
        self.batches = 0
        self.documents = 0
        self.max_size = 0

    @staticmethod
    def bucket_of(size: int) -> str:
        if size <= 2:
            return str(size)
        upper = 1 << (size - 1).bit_length()
        return f"{upper // 2 + 1}-{upper}"

    def record(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"batch size must be >= 1, got {size}")
        bucket = self.bucket_of(size)
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1
        self.batches += 1
        self.documents += size
        if size > self.max_size:
            self.max_size = size

    def as_dict(self) -> Dict[str, object]:
        return {
            "batches": self.batches,
            "documents": self.documents,
            "max_size": self.max_size,
            "buckets": dict(self._buckets),
        }
