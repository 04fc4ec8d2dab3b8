"""InvariantMonitor unit tests: green on a correct engine, red on
tampered state.

The harness-level tests prove the monitor stays quiet on correct runs;
these prove it would actually *fire* — each invariant family is
falsified by mutating engine state (or forging a notification) and the
monitor must record the violation.
"""

from __future__ import annotations

import pytest

from repro.core.engine import DasEngine
from repro.core.events import Notification
from repro.core.query import DasQuery
from repro.core.result_set import AW_RESIDENT
from repro.simulation import (
    InstrumentedEngine,
    InvariantMonitor,
    default_engine_config,
)
from repro.stream.document import Document

VOCAB = ["w", "a", "b", "c"]


def make_setup(with_oracle=True):
    engine = DasEngine(default_engine_config())
    monitor = InvariantMonitor(engine, with_oracle=with_oracle)
    instrumented = InstrumentedEngine(engine, monitor)
    return engine, monitor, instrumented


def feed(instrumented, n_docs, start_id=0):
    for i in range(n_docs):
        tokens = [VOCAB[i % len(VOCAB)], VOCAB[(i * 2 + 1) % len(VOCAB)], "w"]
        instrumented.publish(
            Document.from_tokens(start_id + i, tokens, float(start_id + i))
        )


def test_clean_run_exercises_every_family_without_violations():
    engine, monitor, instrumented = make_setup()
    for qid, keywords in enumerate([["w", "a"], ["w", "b"], ["a", "c"]]):
        instrumented.subscribe(DasQuery(qid, keywords))
    feed(instrumented, 20)
    monitor.check_all()
    assert monitor.violations == []
    assert monitor.checks["size"] == 1
    assert monitor.checks["bounds"] == 1
    assert monitor.checks["oracle"] == 1
    # 20 publishes into k=3 result sets must have caused replacements.
    assert monitor.checks["lemma1"] > 0
    # ... and every update of a full result set audits the oldest row.
    assert monitor.checks["sim_acc"] >= monitor.checks["lemma1"]
    # ... and every warm-up admit audits that the table is rows only.
    assert monitor.checks["warmup"] > 0
    # ... and every full query a document reaches has its floor audited.
    assert monitor.checks["floor"] > 0


def test_oracle_can_be_disabled():
    engine, monitor, instrumented = make_setup(with_oracle=False)
    instrumented.subscribe(DasQuery(0, ["w"]))
    feed(instrumented, 5)
    monitor.check_all()
    assert monitor.oracle is None
    assert monitor.checks["oracle"] == 0
    assert monitor.violations == []


def _columns(result_set):
    """A result table's row columns, for tests that corrupt a row."""
    return (
        result_set._docs,
        result_set._trels,
        result_set._sim,
        result_set._flags,
    )


def test_size_check_flags_overfull_and_out_of_order_results():
    engine, monitor, instrumented = make_setup(with_oracle=False)
    instrumented.subscribe(DasQuery(0, ["w"]))
    feed(instrumented, 8)
    result_set = engine._result_sets[0]
    assert result_set.size == engine.config.k
    # Copy the oldest row to the back: overfull AND breaks stream order.
    for column in _columns(result_set):
        column.append(column[0])
    monitor.check_all()
    names = [v.name for v in monitor.violations]
    assert names.count("size") == 2
    assert "holds 4 results" in monitor.violations[0].detail


def test_oracle_check_flags_a_dropped_result():
    engine, monitor, instrumented = make_setup()
    instrumented.subscribe(DasQuery(0, ["w", "a"]))
    feed(instrumented, 8)
    monitor.check_all()
    assert monitor.violations == []
    for column in _columns(engine._result_sets[0]):
        column.pop()  # silently lose a delivery
    monitor.check_oracle()
    assert [v.name for v in monitor.violations] == ["oracle"]


def test_bounds_check_flags_an_unsound_block_threshold():
    engine, monitor, instrumented = make_setup(with_oracle=False)
    for qid in range(3):
        instrumented.subscribe(DasQuery(qid, ["w", VOCAB[qid % 3 + 1]]))
    feed(instrumented, 16)
    # Force clean metadata on every block, then corrupt one summary so
    # FT̃_b exceeds the exact minimum threshold.
    tampered = False
    for _term, block in engine.iter_term_blocks():
        block.refresh_metadata(engine._result_sets)
        if not tampered and block.dtrel_min != float("-inf"):
            block.dtrel_min += 100.0
            tampered = True
    assert tampered
    monitor.check_bounds()
    assert any(
        v.name == "bounds" and "exceeds exact threshold" in v.detail
        for v in monitor.violations
    )


def test_lemma1_check_flags_a_forged_replacement():
    engine, monitor, instrumented = make_setup(with_oracle=False)
    instrumented.subscribe(DasQuery(0, ["w"]))
    feed(instrumented, 6)
    result_set = engine._result_sets[0]
    assert result_set.is_full
    newest = result_set.documents()[-1]
    probe = Document.from_tokens(99, ["w"], 50.0)
    monitor.before_publish(probe)
    # Forge an eviction of the *newest* entry: Lemma 1 only ever evicts
    # the oldest, so the monitor must reject the claim.
    monitor.after_publish(probe, [Notification(0, probe, newest)])
    assert any(
        v.name == "lemma1" and "expected oldest" in v.detail
        for v in monitor.violations
    )


def test_sim_acc_check_flags_a_double_counted_promotion():
    engine, monitor, instrumented = make_setup(with_oracle=False)
    instrumented.subscribe(DasQuery(0, ["w"]))
    feed(instrumented, 6)
    result_set = engine._result_sets[0]
    assert result_set.is_full and monitor.violations == []
    # The row behind the oldest carries similarity mass promotion will
    # add again (what trusting a per-entry checkpoint total would do).
    result_set._sim[1] += 0.25
    feed(instrumented, 6, start_id=6)
    assert monitor.checks["lemma1"] > 0
    assert any(
        v.name == "sim_acc" and "brute-force" in v.detail
        for v in monitor.violations
    )


def test_sim_acc_check_flags_a_stale_kept_threshold(monkeypatch):
    from repro.core.result_set import QueryResultSet

    engine, monitor, instrumented = make_setup(with_oracle=False)
    instrumented.subscribe(DasQuery(0, ["w"]))
    feed(instrumented, 6)
    assert engine._result_sets[0].is_full and monitor.violations == []
    # A replace that leaves the kept halves of Eq. 25 at the evicted
    # row's values: the run loop would decide on a stale threshold.
    monkeypatch.setattr(QueryResultSet, "_keep_thresholds", lambda self: None)
    feed(instrumented, 6, start_id=6)
    assert monitor.checks["lemma1"] > 0
    assert any(
        v.name == "sim_acc" and "kept thresholds" in v.detail
        for v in monitor.violations
    )


def test_floor_check_flags_a_poisoned_aw_entry():
    engine, monitor, instrumented = make_setup(with_oracle=False)
    instrumented.subscribe(DasQuery(0, ["w"]))
    feed(instrumented, 6)
    result_set = engine._result_sets[0]
    assert result_set.is_full and monitor.violations == []
    assert monitor.checks["floor"] > 0
    # The weight the keyword floor reads, doubled: the floor may now
    # exceed the similarity mass it is supposed to stay under.
    weights = result_set.aggregated_weights._weights
    weights["w"] *= 2.0
    feed(instrumented, 1, start_id=6)
    assert any(
        v.name == "floor" and "recomputed" in v.detail
        for v in monitor.violations
    )


def test_floor_check_flags_an_overestimated_floor(monkeypatch):
    from repro.core.result_set import QueryResultSet

    engine, monitor, instrumented = make_setup(with_oracle=False)
    instrumented.subscribe(DasQuery(0, ["w"]))
    feed(instrumented, 6)
    monkeypatch.setattr(
        QueryResultSet,
        "similarity_floor",
        lambda self, term, vector: (
            self.aggregated_weights.weight(term) * vector.frequency(term)
        ),
    )
    feed(instrumented, 1, start_id=6)
    assert any(
        v.name == "floor" and "exceeds" in v.detail
        for v in monitor.violations
    )


def test_warmup_check_flags_filtering_state_below_k():
    from repro.core.agg_weights import AggregatedTermWeights

    engine, monitor, instrumented = make_setup(with_oracle=False)
    instrumented.subscribe(DasQuery(0, ["w"]))
    feed(instrumented, 1)
    result_set = engine._result_sets[0]
    assert not result_set.is_full
    assert monitor.checks["warmup"] == 1 and monitor.violations == []
    # An eagerly built summary (the pre-fill contract) must be caught on
    # the next warm-up admit, and so must a row that reserved budget.
    result_set._aw = AggregatedTermWeights()
    feed(instrumented, 1, start_id=1)
    result_set._aw = None
    result_set._flags[1] |= AW_RESIDENT
    probe = result_set.documents()[1]
    monitor.after_publish(probe, [Notification(0, probe, None)])
    assert [v.name for v in monitor.violations] == ["warmup", "warmup"]
    assert "2 of 3 results" in monitor.violations[0].detail


def test_lemma1_check_flags_replacement_on_unfilled_query():
    engine, monitor, instrumented = make_setup(with_oracle=False)
    instrumented.subscribe(DasQuery(0, ["w"]))
    feed(instrumented, 1)  # result set not full: no eviction possible
    probe = Document.from_tokens(99, ["w"], 50.0)
    monitor.before_publish(probe)
    evicted = engine._result_sets[0].documents()[0]
    monitor.after_publish(probe, [Notification(0, probe, evicted)])
    assert any(
        v.name == "lemma1" and "not full" in v.detail
        for v in monitor.violations
    )


def test_rebind_requires_oracle_off():
    engine, monitor, _instrumented = make_setup(with_oracle=True)
    with pytest.raises(ValueError):
        monitor.rebind(DasEngine(default_engine_config()))
    engine2, monitor2, _ = make_setup(with_oracle=False)
    replacement = DasEngine(default_engine_config())
    monitor2.rebind(replacement)
    monitor2.check_all()  # audits the replacement engine without error
    assert monitor2.violations == []


def test_instrumented_engine_delegates_like_a_plain_engine():
    engine, monitor, instrumented = make_setup()
    assert instrumented.inner is engine
    assert instrumented.monitor is monitor
    assert instrumented.config is engine.config  # __getattr__ delegation
    assert instrumented.clock is engine.clock
    instrumented.subscribe(DasQuery(0, ["w"]))
    notifications = instrumented.publish_batch(
        [
            Document.from_tokens(0, ["w"], 0.0),
            Document.from_tokens(1, ["w", "a"], 1.0),
        ]
    )
    assert [n.document.doc_id for n in notifications] == [0, 1]
    # results() is rank-ordered, so compare membership, not order.
    assert sorted(d.doc_id for d in instrumented.results(0)) == [0, 1]
    instrumented.unsubscribe(0)
    assert 0 not in engine._queries
