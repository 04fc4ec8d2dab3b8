"""Tests for the experiment harness (workloads, runner, sweeps).

Sweeps run at micro scale here — these tests check plumbing and result
shapes, not performance claims (the benchmarks do that).
"""

from __future__ import annotations

import pytest

from repro.experiments import sweeps
from repro.experiments.results import FigureResult
from repro.experiments.runner import run_das_methods, run_method
from repro.experiments.workload import (
    DAS_METHODS,
    WorkloadSpec,
    build_workload,
)

MICRO = WorkloadSpec(
    n_queries=60, n_history=150, n_settle=20, n_measure=30, k=5
)


@pytest.fixture(scope="module")
def micro_workload():
    return build_workload(MICRO)


def test_build_workload_segments(micro_workload):
    w = micro_workload
    assert len(w.history) == 150
    assert len(w.settle) == 20
    assert len(w.measure) == 30
    assert len(w.queries) == 60
    # stream discipline across segments
    all_docs = w.history + w.settle + w.measure
    ids = [d.doc_id for d in all_docs]
    assert ids == sorted(ids)
    times = [d.created_at for d in all_docs]
    assert times == sorted(times)


def test_workload_engines_constructed(micro_workload):
    for method in DAS_METHODS:
        engine = micro_workload.make_engine(method)
        assert engine.method_name == method
        assert engine.config.k == MICRO.k
    naive = micro_workload.make_naive()
    assert naive.config.k == MICRO.k
    disc = micro_workload.make_disc()
    msinc = micro_workload.make_msinc()
    assert disc.query_count == 0 and msinc.query_count == 0


def test_sqd_workload():
    w = build_workload(MICRO.evolve(query_set="sqd"))
    trending = set(w.corpus.trending_terms(per_topic=2))
    for query in w.queries:
        assert set(query.terms) <= trending


def test_unknown_query_set_rejected():
    with pytest.raises(ValueError):
        build_workload(MICRO.evolve(query_set="other"))


def test_run_method_produces_measurements(micro_workload):
    run = run_method(
        micro_workload,
        lambda: micro_workload.make_engine("GIFilter"),
        "GIFilter",
        n_intervals=3,
    )
    assert run.method == "GIFilter"
    assert run.doc_ms >= 0.0
    assert run.insert_ms >= 0.0
    assert len(run.interval_doc_ms) == 3
    assert run.counters.docs_published == MICRO.n_measure
    assert run.index_report is not None
    assert 0.0 <= run.blocks_skipped_ratio <= 1.0


def test_run_das_methods_covers_all(micro_workload):
    runs = run_das_methods(micro_workload, DAS_METHODS)
    assert set(runs) == set(DAS_METHODS)
    # Identical stream => identical match counts: every bound is exact.
    assert len({runs[m].counters.matches for m in DAS_METHODS}) == 1


def test_figure_result_formatting():
    result = FigureResult(
        figure="Figure X",
        title="Test",
        param_name="p",
        param_values=[1, 2],
        series={"A": {1: 0.5, 2: 1.0}, "B": {1: 0.25}},
    )
    table = result.format_table()
    assert "Figure X" in table
    assert "A" in table and "B" in table
    assert "-" in table  # missing value placeholder
    ratios = result.ratio("A", "A")
    assert ratios == {1: 1.0, 2: 1.0}


def test_time_effect_sweep_micro():
    fig_a, fig_b = sweeps.time_effect(MICRO, n_intervals=2)
    assert set(fig_a.series) == set(DAS_METHODS)
    assert fig_a.param_values == [1, 2]
    assert all(v >= 0 for s in fig_a.series.values() for v in s.values())
    assert set(fig_b.series) == set(DAS_METHODS)


def test_result_count_sweep_micro():
    fig = sweeps.result_count(MICRO, values=(2, 4))
    assert fig.param_values == [2, 4]
    for method in DAS_METHODS:
        assert set(fig.series[method]) == {2, 4}


def test_block_size_sweep_micro():
    fig = sweeps.block_size(MICRO, values=(4, 16))
    assert set(fig.series) == {"BIRT", "IFilter", "GIFilter"}


def test_user_study_micro():
    result = sweeps.user_study(
        MICRO.evolve(n_queries=10), n_queries=10, snapshots=2, k=3
    )
    assert result.table
    for row in result.table.values():
        for aspect in ("Relevance", "Recency", "Range of Int.", "Overall"):
            assert 1.0 <= row[aspect] <= 5.0
    text = result.format_table()
    assert "Table 6" in text


def test_window_size_sweep_micro():
    fig = sweeps.window_size(MICRO.evolve(n_queries=10), values=(50, 100))
    assert list(fig.series) == ["DisC"]
    assert set(fig.series["DisC"]) == {50, 100}
