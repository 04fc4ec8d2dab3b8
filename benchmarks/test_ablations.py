"""Ablations called out in DESIGN.md §5: init strategy, AW on/off."""

from __future__ import annotations

from benchmarks.common import BENCH_SPEC, save_figure
from repro.experiments import sweeps


def test_abl_init_strategy(benchmark):
    fig = benchmark.pedantic(
        lambda: sweeps.init_strategy_ablation(BENCH_SPEC),
        rounds=1,
        iterations=1,
    )
    save_figure(fig)
    assert set(fig.series) == {"recent", "relevant", "greedy"}
    # Greedy pays the most at subscription time, recent the least.
    assert (
        fig.series["greedy"]["insert ms/q"]
        >= fig.series["recent"]["insert ms/q"]
    )


def test_abl_agg_weights(benchmark):
    fig = benchmark.pedantic(
        lambda: sweeps.agg_weights_ablation(BENCH_SPEC), rounds=1, iterations=1
    )
    save_figure(fig)
    # Lemma 6 exists to cut per-document similarity evaluations:
    # deterministic, so assert it.
    assert (
        fig.series["IFilter (AW)"]["sims/doc"]
        < fig.series["BIRT (no AW)"]["sims/doc"]
    )
