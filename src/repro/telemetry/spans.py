"""Per-publish stage accounting.

A :class:`PublishObservation` is the engine-side carrier for one
publish: it accumulates per-stage elapsed time (group filter, individual
filter, result update; postings traversal is the remainder), which
:class:`repro.telemetry.Telemetry` folds into its stage histograms at
publish end.
"""

from __future__ import annotations

from typing import Callable, Dict


class PublishObservation:
    """Per-publish accumulator handed out by ``Telemetry.begin_publish``."""

    __slots__ = ("time", "started_at", "stage_seconds")

    def __init__(self, time_fn: Callable[[], float]) -> None:
        self.time = time_fn
        self.started_at = time_fn()
        #: stage name -> accumulated seconds within this publish.
        self.stage_seconds: Dict[str, float] = {}

    def add(self, stage: str, elapsed: float) -> None:
        if elapsed < 0.0:
            elapsed = 0.0
        self.stage_seconds[stage] = (
            self.stage_seconds.get(stage, 0.0) + elapsed
        )
