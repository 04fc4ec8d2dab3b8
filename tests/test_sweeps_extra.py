"""Every figure key through ``run_figures`` at micro scale.

Each key runs once per session (the ``micro_figure`` fixture); the
tests below read its result objects.  Wall-clock values are only
checked for presence; the assertions on values are on deterministic
quantities (work counters, index sizes, rate arithmetic).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.cli import FIGURES, record_name
from repro.experiments.results import FigureResult, UserStudyResult
from repro.experiments.workload import DAS_METHODS

RECORD_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "out"
)


def tables(micro_figure, key):
    """``{figure id: result}`` for one figure key."""
    results, _files = micro_figure(key)
    return {result.figure: result for result in results}


def check_sweep(result, param_values, methods):
    assert result.param_values == list(param_values)
    assert list(result.series) == list(methods)


@pytest.mark.parametrize("key", list(FIGURES))
def test_figure_runs_through_run_figures(micro_figure, key):
    """Every table has every series at every parameter value, and the
    files ``--out`` gets are the ones the record holds."""
    results, files = micro_figure(key)
    assert results
    assert files == sorted(record_name(result) for result in results)
    assert set(files) <= set(os.listdir(RECORD_DIR))
    for result in results:
        if isinstance(result, UserStudyResult):
            continue
        for table in [result] + result.companions:
            assert isinstance(table, FigureResult)
            for label, values in table.series.items():
                for param in table.param_values:
                    value = values.get(param)
                    assert value is not None, (table.figure, label, param)
                    assert value >= 0.0


def test_record_is_what_run_figures_writes(micro_figure):
    """``benchmarks/out`` holds exactly the files ``run all`` writes."""
    written = set()
    for key in FIGURES:
        written.update(micro_figure(key)[1])
    assert written == set(os.listdir(RECORD_DIR))


def test_query_keywords_sweep(micro_figure):
    figs = tables(micro_figure, "fig5")
    assert list(figs) == ["Figure 5(a)", "Figure 5(b)"]
    for fig in figs.values():
        check_sweep(fig, (1, 3, 5, 8), DAS_METHODS)
    assert len(figs["Figure 5(a)"].companions) == 3  # work tables attached
    assert figs["Figure 5(b)"].unit == "ms/query"


def test_query_scale_sweep(micro_figure):
    figs = tables(micro_figure, "fig7")
    assert list(figs) == ["Figure 7(a)", "Figure 7(b)", "Figure 8"]
    fig8 = figs["Figure 8"]
    check_sweep(fig8, (500, 1000, 2000, 4000), DAS_METHODS)
    assert fig8.unit.startswith("MB")
    # Index size grows with the query count (Figure 8's linear trend).
    for method in DAS_METHODS:
        sizes = [fig8.series[method][v] for v in fig8.param_values]
        assert sizes == sorted(sizes), f"{method} index size not monotone"
        assert sizes[0] < sizes[-1]


def test_alpha_effect_sweep(micro_figure):
    (fig,) = tables(micro_figure, "fig12").values()
    check_sweep(fig, (0.1, 0.3, 0.5, 0.7, 0.9), DAS_METHODS)


def test_decay_scale_sweep(micro_figure):
    (fig,) = tables(micro_figure, "fig13").values()
    check_sweep(fig, (0.1, 0.3, 0.5, 0.7, 0.9), DAS_METHODS)


def test_phi_max_sweep(micro_figure):
    (fig,) = tables(micro_figure, "fig14").values()
    check_sweep(fig, (2_000, 10_000, 50_000, -1), ("IFilter", "GIFilter"))
    # Budget only matters via AW residency: the sims/doc companion must
    # show unlimited <= the smallest budget.
    sims = fig.companions[0]
    assert sims.unit == "sims/doc"
    for method in ("IFilter", "GIFilter"):
        assert sims.series[method][-1] <= sims.series[method][2_000] + 1e-9


def test_delta_s_sweep(micro_figure):
    (fig,) = tables(micro_figure, "fig15").values()
    check_sweep(fig, (0.1, 0.3, 0.5, 0.7, 0.9), ("GIFilter",))


def test_doc_terms_sweep(micro_figure):
    (fig,) = tables(micro_figure, "fig16").values()
    check_sweep(fig, (5, 10, 15, 20), DAS_METHODS)


def test_sqd_scale_sweep(micro_figure):
    (fig,) = tables(micro_figure, "fig17").values()
    check_sweep(fig, (250, 500, 1000, 2000), DAS_METHODS)


def test_arrival_rate_sweep(micro_figure):
    figs = tables(micro_figure, "fig11")
    assert list(figs) == ["Figure 11(a)", "Figure 11(b)"]
    # Per-minute cost is rate x per-item cost: linear in the rate.
    for fig in figs.values():
        first = fig.param_values[0]
        for method in DAS_METHODS:
            series = fig.series[method]
            for rate in fig.param_values:
                assert series[rate] == pytest.approx(
                    series[first] * rate / first
                )


def test_other_systems_sweep(micro_figure):
    figs = tables(micro_figure, "fig9")
    assert list(figs) == ["Figure 9(a)", "Figure 9(b)"]
    for fig in figs.values():
        for label in DAS_METHODS + ("DisC", "MSInc"):
            assert label in fig.series


def test_agg_weights_ablation(micro_figure):
    (fig,) = tables(micro_figure, "abl-aw").values()
    # Lemma 6 exists to cut per-document similarity evaluations.
    assert (
        fig.series["IFilter (AW)"]["sims/doc"]
        < fig.series["BIRT (no AW)"]["sims/doc"]
    )

