"""Metrics: instrumentation counters, quality proxies."""

from repro.metrics.instrumentation import BatchHistogram, Counters
from repro.metrics.quality import (
    QualityReport,
    evaluate_result_set,
    likert_rescale,
    mean_report,
    range_of_interests_aspect,
    recency_aspect,
    relevance_aspect,
    user_study_table,
)

__all__ = [
    "BatchHistogram",
    "Counters",
    "QualityReport",
    "evaluate_result_set",
    "likert_rescale",
    "mean_report",
    "range_of_interests_aspect",
    "recency_aspect",
    "relevance_aspect",
    "user_study_table",
]
