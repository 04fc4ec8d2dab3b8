"""Tests for the experiment harness (workloads, runner, figures).

Figures run at micro scale here — these tests check plumbing and result
shapes, not performance claims (``benchmarks/e2e`` does that).
"""

from __future__ import annotations

import pytest

from repro.experiments.results import FigureResult
from repro.experiments.runner import run_das_methods, run_method
from repro.experiments.sweeps import SCALES
from repro.experiments.workload import DAS_METHODS, build_workload

MICRO = SCALES["micro"]


@pytest.fixture(scope="module")
def micro_workload():
    return build_workload(MICRO)


def test_build_workload_segments(micro_workload):
    w = micro_workload
    assert len(w.history) == MICRO.n_history
    assert len(w.settle) == MICRO.n_settle
    assert len(w.measure) == MICRO.n_measure
    assert len(w.queries) == MICRO.n_queries
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
        n_intervals=2,
    )
    assert run.method == "GIFilter"
    assert run.doc_ms >= 0.0
    assert run.insert_ms >= 0.0
    assert len(run.interval_doc_ms) == 2
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


def test_time_effect_sweep_micro(micro_figure):
    results, _files = micro_figure("fig4")
    fig_a, fig_b = results
    assert fig_a.figure == "Figure 4(a)" and fig_b.figure == "Figure 4(b)"
    assert fig_a.param_values == [1, 2, 3, 4, 5, 6]
    assert list(fig_a.series) == list(DAS_METHODS)
    assert list(fig_b.series) == list(DAS_METHODS)
    assert fig_b.unit == "ms/query"


def test_result_count_sweep_micro(micro_figure):
    (fig,), _files = micro_figure("fig6")
    assert fig.param_values == [5, 10, 20, 30]
    for method in DAS_METHODS:
        assert set(fig.series[method]) == {5, 10, 20, 30}


def test_block_size_sweep_micro(micro_figure):
    (fig,), _files = micro_figure("fig10")
    assert fig.param_values == [16, 64, 256, 1024]
    assert list(fig.series) == ["BIRT", "IFilter", "GIFilter"]


def test_user_study_micro(micro_figure):
    (result,), _files = micro_figure("tab6")
    assert set(result.table) == {
        "GIFilter a=0.3",
        "GIFilter a=0.7",
        "MSInc a=0.3",
        "MSInc a=0.7",
        "DisC",
    }
    for row in result.table.values():
        for aspect in ("Relevance", "Recency", "Range of Int.", "Overall"):
            assert 1.0 <= row[aspect] <= 5.0
    text = result.format_table()
    assert "Table 6" in text
    # Within one method, lowering alpha should not *narrow* the range of
    # interests; the effect is small, so allow slack, not a strict order.
    assert (
        result.raw["GIFilter a=0.3"]["Range of Int."]
        >= result.raw["GIFilter a=0.7"]["Range of Int."] - 0.05
    )


def test_window_size_sweep_micro(micro_figure):
    (fig,), _files = micro_figure("fig18")
    assert list(fig.series) == ["DisC"]
    assert set(fig.series["DisC"]) == {250, 500, 1000, 2000}
