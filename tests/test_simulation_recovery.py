"""Crash-recovery equivalence and checkpoint fault handling (ISSUE 3).

The strongest invariant in the suite: checkpoint at op ``c``, kill the
runtime without drain at op ``m``, restore from the checkpoint and
replay ops ``c..end`` — the final result sets must equal an unfailed
reference run's, byte for byte.
"""

from __future__ import annotations

import os

import pytest

from repro.persistence import load
from repro.simulation import SimulationHarness, run_default_suite


def final_state(**kwargs):
    return SimulationHarness(**kwargs).run()["final"]


@pytest.mark.parametrize("seed", [2, 17, 91])
def test_crash_recovery_replay_matches_unfailed_run(seed):
    reference = final_state(seed=seed, ops=40)
    crashed = SimulationHarness(
        seed,
        ops=40,
        check_oracle=False,
        checkpoint_at=12,
        crash_at=25,
    ).run()
    assert crashed["recovered"] is True
    assert crashed["violations"] == []
    assert crashed["final"] == reference


def test_crash_recovery_with_faults_in_the_replayed_tail():
    # The injector state is snapshotted with the checkpoint, so a fault
    # landing after the checkpoint fires identically during replay.
    plan = "engine.doc@6:raise"
    reference = final_state(seed=5, ops=40, fault_plan=plan)
    crashed = SimulationHarness(
        5,
        ops=40,
        fault_plan=plan,
        check_oracle=False,
        checkpoint_at=10,
        crash_at=30,
    ).run()
    assert crashed["recovered"] is True
    assert crashed["final"] == reference


def test_crash_recovery_preserves_counters(tmp_path):
    """ISSUE 5 satellite: a recovered engine's work counters continue
    the original's accounting instead of double-counting.

    Checkpoints persist ``Counters`` and restore loads them wholesale
    *after* rebuilding (the rebuild itself re-increments e.g.
    ``queries_subscribed``); replaying ops ``c..end`` then re-applies
    the same increments as the reference run, so the recovered run's
    final counters equal the unfailed run's exactly — except
    ``mcs_rebuilds`` and the block-refresh counters
    (``scalar_refreshes`` / ``columnar_refreshes``): MCS covers and
    block summary freshness are derived state that checkpoints
    deliberately omit, so the replay redoes work the original still had
    cached and legitimately counts more of it.
    """
    reference = SimulationHarness(17, ops=40, check_oracle=False).run()
    crashed = SimulationHarness(
        17,
        ops=40,
        check_oracle=False,
        checkpoint_at=12,
        crash_at=25,
    ).run()
    assert crashed["recovered"] is True
    crashed_counters = dict(crashed["stats"]["counters"])
    reference_counters = dict(reference["stats"]["counters"])
    for derived in ("mcs_rebuilds", "scalar_refreshes", "columnar_refreshes"):
        assert crashed_counters.pop(derived) >= reference_counters.pop(derived)
    assert crashed_counters == reference_counters

    # Direct checkpoint/restore round trip: counters survive as-is.
    from repro.config import EngineConfig
    from repro.core.engine import DasEngine
    from repro.core.query import DasQuery
    from repro.persistence.checkpoint import checkpoint, restore
    from repro.stream.document import Document
    from repro.text.vectors import TermVector

    engine = DasEngine(EngineConfig(k=2))
    engine.subscribe(DasQuery(0, ("apple", "pear")))
    for doc_id in range(5):
        engine.publish(
            Document(doc_id, TermVector({"apple": 1, "pear": 1}), float(doc_id))
        )
    recovered = restore(checkpoint(engine))
    assert recovered.counters.as_dict() == engine.counters.as_dict()
    # Without the wholesale restore the rebuild would have left exactly
    # one spurious queries_subscribed increment; pin the exact value.
    assert recovered.counters.queries_subscribed == 1
    assert recovered.counters.docs_published == 5

    # Legacy checkpoints (no "counters" key) still restore; the rebuild
    # increments are all the accounting they have.
    legacy = checkpoint(engine)
    del legacy["counters"]
    old = restore(legacy)
    assert old.counters.queries_subscribed == 1
    assert old.counters.docs_published == 0


def test_constructor_rejects_inconsistent_crash_setups():
    with pytest.raises(ValueError):
        SimulationHarness(1, crash_at=10)  # no checkpoint to restore from
    with pytest.raises(ValueError):
        SimulationHarness(1, checkpoint_at=10, crash_at=10)  # not earlier
    with pytest.raises(ValueError):
        # The per-op oracle cannot be rewound across a crash.
        SimulationHarness(1, checkpoint_at=5, crash_at=10, check_oracle=True)


def test_checkpoint_file_is_written_and_loadable(tmp_path):
    path = os.path.join(str(tmp_path), "ckpt.json")
    report = SimulationHarness(
        7, ops=30, checkpoint_at=15, checkpoint_path=path
    ).run()
    assert report["ok"], report["violations"]
    assert "checkpoint_file_error" not in report
    engine = load(path)
    assert engine.config.k == 3
    # The restored engine holds the queries that were live at op 15.
    assert isinstance(engine._queries, dict) and engine._queries


def test_injected_checkpoint_write_failure_leaves_no_file(tmp_path):
    path = os.path.join(str(tmp_path), "ckpt.json")
    report = SimulationHarness(
        7,
        ops=30,
        fault_plan="checkpoint.write@1:raise",
        checkpoint_at=15,
        checkpoint_path=path,
    ).run()
    assert report["checkpoint_file_error"] == "InjectedFaultError"
    # Atomic save: the failure hit the temp file, never the target — a
    # pre-existing checkpoint at ``path`` would have survived intact.
    assert not os.path.exists(path)
    assert report["ok"], report["violations"]


def test_default_suite_is_green_end_to_end():
    suite = run_default_suite(29, ops=40)
    assert suite["ok"], [
        (s["scenario"], s.get("violations")) for s in suite["scenarios"]
    ]
    by_name = {s["scenario"]: s for s in suite["scenarios"]}
    assert by_name["crash_recovery"]["equal"] is True
    assert by_name["crash_recovery"]["recovered"] is True
    assert by_name["checkpoint_fault"]["checkpoint_file_absent"] is True
    # Every fault scenario actually fired at least one fault.
    for name in (
        "engine_batch_fault",
        "mid_batch_fault",
        "ingest_fault",
        "slow_consumer_stall",
        "client_retry",
    ):
        assert by_name[name]["faults_fired"], name
