"""Coverage for the remaining sweep functions at micro scale."""

from __future__ import annotations

import pytest

from repro.experiments import sweeps
from repro.experiments.workload import DAS_METHODS, WorkloadSpec

MICRO = WorkloadSpec(
    n_queries=60, n_history=150, n_settle=20, n_measure=30, k=5
)


def test_query_keywords_sweep():
    fig_a, fig_b = sweeps.query_keywords(MICRO, values=(1, 3))
    for fig in (fig_a, fig_b):
        assert set(fig.series) == set(DAS_METHODS)
        assert fig.param_values == [1, 3]
    assert fig_a.companions  # work tables attached


def test_query_scale_sweep():
    fig_a, fig_b, fig_c = sweeps.query_scale(MICRO, values=(30, 60))
    assert fig_c.unit.startswith("MB")
    for method in DAS_METHODS:
        assert fig_c.series[method][60] >= fig_c.series[method][30]


def test_alpha_effect_sweep():
    fig = sweeps.alpha_effect(MICRO, values=(0.2, 0.8))
    assert fig.param_values == [0.2, 0.8]
    assert set(fig.series) == set(DAS_METHODS)


def test_decay_scale_sweep():
    fig = sweeps.decay_scale(MICRO, values=(0.2, 0.8))
    assert set(fig.series) == set(DAS_METHODS)


def test_phi_max_sweep():
    fig = sweeps.phi_max(MICRO, values=(100, -1))
    assert set(fig.series) == {"IFilter", "GIFilter"}
    # Budget only matters via AW residency; sims/doc companion must show
    # unlimited <= tiny budget for IFilter.
    sims = fig.companions[0].series["IFilter"]
    assert sims[-1] <= sims[100] + 1e-9


def test_delta_s_sweep():
    fig = sweeps.delta_s(MICRO, values=(0.2, 0.8))
    assert list(fig.series) == ["GIFilter"]


def test_doc_terms_sweep():
    fig = sweeps.doc_terms(MICRO, values=(5, 12))
    assert set(fig.series) == set(DAS_METHODS)


def test_sqd_scale_sweep():
    fig = sweeps.sqd_scale(MICRO, values=(20, 40))
    assert set(fig.series) == set(DAS_METHODS)


def test_arrival_rate_sweep():
    fig_a, fig_b = sweeps.arrival_rate(MICRO, values=(10, 20))
    for method in DAS_METHODS:
        assert fig_a.series[method][20] == pytest.approx(
            2 * fig_a.series[method][10]
        )


def test_other_systems_sweep():
    fig_a, fig_b = sweeps.other_systems(MICRO.evolve(n_queries=30))
    for label in DAS_METHODS + ("DisC", "MSInc"):
        assert label in fig_a.series
        assert label in fig_b.series


def test_agg_weights_ablation():
    fig = sweeps.agg_weights_ablation(MICRO)
    assert (
        fig.series["IFilter (AW)"]["sims/doc"]
        <= fig.series["BIRT (no AW)"]["sims/doc"]
    )


def test_init_strategy_ablation():
    fig = sweeps.init_strategy_ablation(MICRO)
    assert set(fig.series) == {"recent", "relevant", "greedy"}
    for row in fig.series.values():
        assert set(row) == {"insert ms/q", "matches/doc", "ms/doc"}
