"""Deterministic trace sampling and per-publish span accounting.

Sampling must be a pure function of ``(seed, doc_id)`` — never of time
or position in a batch — so the same document is sampled (or not)
however it is batched, and so seeded simulation runs reproduce
byte-for-byte.  ``crc32`` over ``"{seed}:{doc_id}"`` gives a
uniform 32-bit hash with no dependency on Python's per-process hash
randomisation.

A :class:`PublishObservation` is the engine-side carrier for one
publish: it accumulates per-stage elapsed time (group filter, individual
filter, result update; postings traversal is the remainder) and, for
sampled documents, the counter baseline that :class:`repro.telemetry.
Telemetry` turns into a span tree of counter deltas at publish end.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Optional


class TraceSampler:
    """Seeded deterministic sampler over document ids."""

    __slots__ = ("seed", "rate", "_threshold")

    def __init__(self, seed: int = 0, rate: float = 1.0 / 16.0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {rate}")
        self.seed = seed
        self.rate = rate
        #: crc32 values below this are sampled; rate 1.0 samples all.
        self._threshold = int(rate * (1 << 32))

    def sampled(self, doc_id: int) -> bool:
        if self._threshold == 0:
            return False
        key = f"{self.seed}:{doc_id}".encode("ascii")
        return zlib.crc32(key) < self._threshold


class PublishObservation:
    """Per-publish accumulator handed out by ``Telemetry.begin_publish``."""

    __slots__ = ("doc_id", "time", "started_at", "stage_seconds", "baseline")

    def __init__(
        self,
        doc_id: int,
        time_fn: Callable[[], float],
        baseline: Optional[Dict[str, int]],
    ) -> None:
        self.doc_id = doc_id
        self.time = time_fn
        self.started_at = time_fn()
        #: stage name -> accumulated seconds within this publish.
        self.stage_seconds: Dict[str, float] = {}
        #: Counter snapshot at publish start; None when not sampled.
        self.baseline = baseline

    def add(self, stage: str, elapsed: float) -> None:
        if elapsed < 0.0:
            elapsed = 0.0
        self.stage_seconds[stage] = (
            self.stage_seconds.get(stage, 0.0) + elapsed
        )
