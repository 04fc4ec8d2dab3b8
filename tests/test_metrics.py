"""Tests for the work counters, the batch-size histogram and the
user-study quality proxies."""

from __future__ import annotations

import pytest

from repro.experiments.quality import (
    QualityReport,
    evaluate_result_set,
    likert_rescale,
    mean_report,
    range_of_interests_aspect,
    recency_aspect,
    relevance_aspect,
    user_study_table,
)
from repro.scoring.recency import ExponentialDecay
from repro.scoring.relevance import LanguageModelScorer
from repro.stream.document import Document
from repro.telemetry import BatchHistogram, Counters
from repro.text.collection_stats import CollectionStatistics


def doc(i, tokens, t=None):
    return Document.from_tokens(i, tokens, float(i) if t is None else t)


# -- Counters ----------------------------------------------------------------


def test_counters_delta():
    a = Counters(docs_published=5, matches=2)
    b = Counters(docs_published=8, matches=3)
    delta = b.delta(a)
    assert delta.docs_published == 3
    assert delta.matches == 1
    assert a.delta(a) == Counters()


def test_counters_snapshot_independent():
    counters = Counters()
    snap = counters.snapshot()
    counters.matches += 10
    assert snap.matches == 0


def test_counters_reset_and_dict():
    counters = Counters(matches=4)
    assert counters.as_dict()["matches"] == 4


# -- Batch-size histogram ----------------------------------------------------


def test_batch_histogram_buckets():
    histogram = BatchHistogram()
    for size in (1, 2, 3, 4, 7, 8, 9, 64):
        histogram.record(size)
    report = histogram.as_dict()
    assert report["batches"] == 8
    assert report["documents"] == 98
    assert report["max_size"] == 64
    assert report["buckets"] == {
        "1": 1, "2": 1, "3-4": 2, "5-8": 2, "9-16": 1, "33-64": 1,
    }
    with pytest.raises(ValueError):
        histogram.record(0)


# -- Quality proxies --------------------------------------------------------------


@pytest.fixture
def quality_env():
    stats = CollectionStatistics()
    docs = [
        doc(0, ["storm", "florida"], t=0.0),
        doc(1, ["storm", "warning"], t=5.0),
        doc(2, ["recipe", "pasta"], t=9.0),
    ]
    for d in docs:
        stats.add(d.vector)
    scorer = LanguageModelScorer(stats, 0.5)
    decay = ExponentialDecay(2.0)
    return docs, scorer, decay


def test_relevance_aspect_orders_sets(quality_env):
    docs, scorer, _ = quality_env
    on_topic = relevance_aspect(["storm"], docs[:2], scorer)
    off_topic = relevance_aspect(["storm"], docs[2:], scorer)
    assert on_topic > off_topic
    assert relevance_aspect(["storm"], [], scorer) == 0.0


def test_recency_aspect(quality_env):
    docs, _, decay = quality_env
    fresh = recency_aspect([docs[2]], decay, now=9.0)
    stale = recency_aspect([docs[0]], decay, now=9.0)
    assert fresh == pytest.approx(1.0)
    assert stale < fresh
    assert recency_aspect([], decay, 0.0) == 0.0


def test_range_of_interests(quality_env):
    docs, _, _ = quality_env
    narrow = range_of_interests_aspect(docs[:2])
    broad = range_of_interests_aspect([docs[0], docs[2]])
    assert broad > narrow
    assert range_of_interests_aspect([docs[0]]) == 0.0


def test_evaluate_result_set_report(quality_env):
    docs, scorer, decay = quality_env
    report = evaluate_result_set(["storm"], docs, scorer, decay, now=9.0)
    assert 0.0 <= report.recency <= 1.0
    assert 0.0 <= report.range_of_interests <= 1.0
    assert report.relevance > 0.0
    assert report.blended() == pytest.approx(
        (report.relevance + report.recency + report.range_of_interests) / 3
    )


def test_likert_rescale():
    values = {"A": 0.9, "B": 0.1, "C": 0.5}
    scaled = likert_rescale(values)
    assert scaled["A"] == pytest.approx(5.0)
    assert scaled["B"] == pytest.approx(1.0)
    assert 1.0 < scaled["C"] < 5.0
    assert likert_rescale({"A": 0.4, "B": 0.4}) == {"A": 3.0, "B": 3.0}
    assert likert_rescale({}) == {}


def test_user_study_table_shape():
    raw = {
        "GIFilter": QualityReport(0.8, 0.9, 0.7),
        "DisC": QualityReport(0.3, 0.5, 0.6),
    }
    table = user_study_table(raw)
    assert set(table) == {"GIFilter", "DisC"}
    for row in table.values():
        assert set(row) == {"Relevance", "Recency", "Range of Int.", "Overall"}
        for value in row.values():
            assert 1.0 <= value <= 5.0
    assert table["GIFilter"]["Relevance"] > table["DisC"]["Relevance"]


def test_mean_report():
    merged = mean_report(
        [QualityReport(0.2, 0.4, 0.6), QualityReport(0.4, 0.6, 0.8)]
    )
    assert merged.relevance == pytest.approx(0.3)
    assert merged.recency == pytest.approx(0.5)
    assert merged.range_of_interests == pytest.approx(0.7)
    empty = mean_report([])
    assert empty.relevance == 0.0
