"""Pin the adaptive backend's per-batch decision boundary (ISSUE 6).

The auto backend regressed below the pure-Python backend at bench
shapes because it packed covers/entries for batches far too small to
amortise the NumPy crossover.  The fix commits each publish micro-batch
to one dispatch mode via :func:`choose_batch_mode`; these tests pin
that boundary so a future threshold tweak that would re-inflict the
regression fails loudly, and pin the counter plumbing that exposes the
decision as ``vectorized_batch_fraction``.
"""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.core.engine import DasEngine
from repro.kernels import resolve_backend
from repro.kernels.adaptive import (
    DEFAULT_MIN_BATCH_WORK,
    DEFAULT_MIN_ROWS,
    DEFAULT_MIN_ROWS_NO_AW,
    choose_batch_mode,
)
from repro.telemetry.effectiveness import effectiveness_gauges
from repro.workloads.corpus import SyntheticTweetCorpus


def test_defaults_are_pinned():
    """The shipped thresholds are part of the perf contract."""
    assert DEFAULT_MIN_ROWS == 32
    assert DEFAULT_MIN_BATCH_WORK == 256
    assert DEFAULT_MIN_ROWS_NO_AW == 16


@pytest.mark.parametrize(
    ("batch_size", "k", "blocks", "expected"),
    [
        # k alone decides the result-set ops: member matrix has k rows.
        (1, 32, 0, "numpy"),
        (1, 31, 0, "python"),
        (512, 100, 1, "numpy"),
        # Below min_rows, batch work decides packed-cover reuse.
        (255, 4, 1, "python"),
        (256, 4, 1, "mixed"),
        (1, 4, 256, "mixed"),
        (16, 16, 16, "mixed"),
        (15, 16, 16, "python"),
        # Zero candidate blocks count as one (cold index).
        (256, 4, 0, "mixed"),
        (255, 4, 0, "python"),
        # The server-benchmark shape that motivated the fix.
        (64, 20, 4, "mixed"),
        # The paper-default k=30 stays scalar for a lone document.
        (1, 30, 0, "python"),
        (1, 36, 0, "numpy"),
    ],
)
def test_choose_batch_mode_boundary(batch_size, k, blocks, expected):
    assert choose_batch_mode(batch_size, k, blocks) == expected


@pytest.mark.parametrize(
    ("batch_size", "k", "blocks", "expected"),
    [
        # Without the AW shortcut (BIRT / IRT) the full tail-similarity
        # matrix amortises NumPy at k=16 already — the bench's k=20
        # commits numpy where the AW methods stay scalar.
        (1, 16, 0, "numpy"),
        (1, 20, 1, "numpy"),
        (1, 15, 0, "python"),
        (256, 15, 1, "mixed"),
    ],
)
def test_choose_batch_mode_boundary_no_aw(batch_size, k, blocks, expected):
    assert (
        choose_batch_mode(batch_size, k, blocks, aw_shortcut=False)
        == expected
    )


def test_engine_commits_numpy_for_baseline_methods():
    """BIRT (no aggregated weights) commits numpy mode at the bench's
    k=20; GIFilter at the same k stays scalar (ISSUE 9 satellite 1)."""
    corpus = SyntheticTweetCorpus(
        vocab_size=150, n_topics=6, doc_length=(4, 8), seed=9
    )
    docs = corpus.documents(8)
    birt = DasEngine.for_method("BIRT", k=20, block_size=8, backend="auto")
    if birt._kernels.name != "auto":
        pytest.skip("numpy unavailable; auto resolved to a fixed backend")
    birt.publish_batch(docs)
    assert birt._kernels.mode == "numpy"
    assert birt.counters.batches_vectorized == 1
    gifilter = DasEngine.for_method(
        "GIFilter", k=20, block_size=8, backend="auto"
    )
    gifilter.publish_batch(docs)
    assert gifilter._kernels.mode != "numpy"
    assert gifilter.counters.batches_scalar == 1


def test_begin_batch_rebinds_hot_ops_to_backend_methods():
    """Committing a mode binds ops straight to the target backend —
    the adaptive layer must not sit in the per-call hot path."""
    kernels = resolve_backend("auto")
    if kernels.name != "auto":
        pytest.skip("numpy unavailable; auto resolved to python")
    assert kernels.begin_batch(1, 4, 1) == "python"
    assert kernels.mode == "python"
    assert (
        kernels.similarities_to.__func__
        is kernels._python.similarities_to.__func__
    )
    assert kernels.begin_batch(1, 64, 1) == "numpy"
    assert (
        kernels.similarities_to.__func__
        is kernels._similarities_to_numpy.__func__
    )
    # Mixed keeps scalar similarity ops but adaptive cover packing.
    assert kernels.begin_batch(64, 4, 8) == "mixed"
    assert (
        kernels.similarities_to.__func__
        is kernels._python.similarities_to.__func__
    )
    assert (
        kernels.pack_covers.__func__
        is kernels._pack_covers_adaptive.__func__
    )


def test_engine_accounts_batch_modes():
    corpus = SyntheticTweetCorpus(
        vocab_size=150, n_topics=6, doc_length=(4, 8), seed=7
    )
    docs = corpus.documents(40)
    engine = DasEngine(EngineConfig(k=40, block_size=8, backend="auto"))
    if engine.backend_name != "numpy" and engine._kernels.name != "auto":
        pytest.skip("numpy unavailable")
    engine.publish_batch(docs[:8])  # k=40 >= min_rows: vectorized
    assert engine.counters.batches_vectorized == 1
    small = DasEngine(EngineConfig(k=4, block_size=8, backend="auto"))
    small.publish_batch(docs[8:16])  # tiny work: scalar
    assert small.counters.batches_scalar == 1


def test_vectorized_batch_fraction_gauge():
    gauges = effectiveness_gauges(
        {
            "blocks_visited": 0,
            "blocks_skipped": 0,
            "queries_evaluated": 0,
            "quick_rejections": 0,
            "sim_evaluations": 0,
            "matches": 0,
            "postings_visited": 0,
            "docs_published": 0,
            "group_checks": 0,
            "batches_vectorized": 3,
            "batches_scalar": 1,
        }
    )
    assert gauges["vectorized_batch_fraction"] == pytest.approx(0.75)


def test_gauge_tolerates_pre_columnar_counter_dicts():
    """Counter dicts from checkpoints written before this layout lack
    the batch-mode counters; the gauge must read all-scalar, not raise."""
    legacy = {
        "blocks_visited": 5,
        "blocks_skipped": 5,
        "queries_evaluated": 10,
        "quick_rejections": 2,
        "sim_evaluations": 4,
        "matches": 2,
        "postings_visited": 50,
        "docs_published": 10,
        "group_checks": 10,
    }
    assert effectiveness_gauges(legacy)["vectorized_batch_fraction"] == 0.0
