"""Focused tests for the experiment runner's measurement mechanics."""

from __future__ import annotations

import pytest

from repro.experiments.runner import run_method
from repro.experiments.sweeps import SCALES
from repro.experiments.workload import build_workload

SPEC = SCALES["micro"]


@pytest.fixture(scope="module")
def workload():
    return build_workload(SPEC)


def test_intervals_partition_the_measured_segment(workload):
    run = run_method(
        workload,
        lambda: workload.make_engine("IFilter"),
        "IFilter",
        n_intervals=5,  # 50 docs -> five chunks of 10
    )
    assert len(run.interval_doc_ms) == 5
    assert all(ms >= 0 for ms in run.interval_doc_ms)
    # doc_ms is the weighted mean of the intervals (equal-sized chunks).
    assert run.doc_ms == pytest.approx(
        sum(run.interval_doc_ms) / len(run.interval_doc_ms), rel=0.05
    )


def test_uneven_interval_split(workload):
    run = run_method(
        workload,
        lambda: workload.make_engine("IRT"),
        "IRT",
        n_intervals=4,  # 50 docs / 4 -> chunks of 12 with a remainder
    )
    assert len(run.interval_doc_ms) == 5
    assert run.counters.docs_published == SPEC.n_measure


def test_counters_cover_only_measured_segment(workload):
    run = run_method(
        workload, lambda: workload.make_engine("GIFilter"), "GIFilter"
    )
    assert run.counters.docs_published == SPEC.n_measure
    assert run.counters.queries_subscribed == 0  # subscribed before delta


def test_naive_engine_runs_through_runner(workload):
    run = run_method(workload, workload.make_naive, "Naive")
    assert run.index_report is None  # naive exposes no index report
    assert run.counters.docs_published == SPEC.n_measure


def test_msinc_and_disc_run_through_runner(workload):
    msinc = run_method(workload, workload.make_msinc, "MSInc")
    disc = run_method(workload, workload.make_disc, "DisC")
    assert msinc.method == "MSInc"
    assert disc.method == "DisC"
    assert msinc.doc_ms >= 0 and disc.doc_ms >= 0


def test_decay_scale_propagates_to_engines(workload):
    engine = workload.make_engine("GIFilter")
    horizon = workload.spec.horizon
    assert engine.decay.at_age(horizon) == pytest.approx(
        workload.spec.decay_scale
    )
    naive = workload.make_naive()
    assert naive._decay.at_age(horizon) == pytest.approx(
        workload.spec.decay_scale
    )
