"""Crash-recovery equivalence through the event log.

The strongest invariant in the suite: a harness run with ``crash_at``
serves from an event-log directory, kills the runtime without drain at
op ``m`` and starts a new one on the same directory.  Its recovery
replays the whole log through a fresh monitored engine, with the per-op
oracle on, and the schedule goes on at op ``m`` — the final result sets
must equal an unfailed reference run's, id for id.
"""

from __future__ import annotations

import contextlib
import os
import types

import pytest

from repro.errors import ReproError
from repro.eventlog import latest_checkpoint
from repro.persistence.checkpoint import restore
from repro.simulation import (
    SimulationHarness,
    default_engine_config,
    run_default_suite,
)


def keep_run_directory(monkeypatch, directory):
    """Serve the harness's event log from ``directory`` instead of a
    temporary one it deletes, so a test can read what the run wrote."""
    from repro.simulation import harness

    monkeypatch.setattr(
        harness,
        "tempfile",
        types.SimpleNamespace(
            TemporaryDirectory=lambda prefix: contextlib.nullcontext(
                directory
            )
        ),
    )


def checkpoint_files(directory):
    """Checkpoint names a restart would load (not ``.tmp`` leftovers)."""
    return sorted(
        name
        for name in os.listdir(directory)
        if name.startswith("checkpoint-") and name.endswith(".json")
    )


def final_state(**kwargs):
    return SimulationHarness(**kwargs).run()["final"]


def assert_recovered_with_oracle(report):
    assert report["recovered"] is True
    assert report["oracle"] is True
    assert report["violations"] == []
    assert report["checks"]["oracle"] > 0
    assert report["checks"]["eventlog"] > 0


@pytest.mark.parametrize("seed", [2, 17, 91])
def test_crash_recovery_replay_matches_unfailed_run(seed):
    reference = final_state(seed=seed, ops=40)
    crashed = SimulationHarness(seed, ops=40, crash_at=25).run()
    assert_recovered_with_oracle(crashed)
    assert crashed["final"] == reference


@pytest.mark.parametrize("mode", ["decay", "window", "spatial"])
def test_crash_recovery_keeps_the_oracle_on_in_every_mode(mode):
    config = default_engine_config(mode=mode, window_size=16, spatial_cells=4)
    reference = SimulationHarness(11, ops=40, engine_config=config).run()
    crashed = SimulationHarness(
        11, ops=40, engine_config=config, crash_at=20
    ).run()
    assert_recovered_with_oracle(crashed)
    assert crashed["final"] == reference["final"]
    assert crashed["recovery"]["replayed"] > 0


def test_crash_recovery_with_faults_in_the_replayed_tail():
    # Faults on both sides of the crash: the log records what the
    # refused, duplicated and delayed publishes made of the stream, and
    # the injector goes on counting arrivals after the restart.
    plan = (
        "ingest.put@3:raise; client.publish@4:duplicate; "
        "consumer.pull@2:stall(3); engine.results@9:raise"
    )
    reference = final_state(seed=5, ops=40, fault_plan=plan)
    crashed = SimulationHarness(5, ops=40, fault_plan=plan, crash_at=20).run()
    assert_recovered_with_oracle(crashed)
    assert crashed["faults_fired"]
    assert crashed["final"] == reference


def test_crash_recovery_preserves_counters():
    """Recovery replays every logged op through the engine the live run
    used, so the recovered engine's work counters equal the unfailed
    run's exactly — derived state (MCS covers, block summaries) is
    rebuilt by the same calls in the same order."""
    reference = SimulationHarness(17, ops=40).run()
    crashed = SimulationHarness(17, ops=40, crash_at=25).run()
    assert crashed["recovered"] is True
    assert crashed["stats"]["counters"] == reference["stats"]["counters"]

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


def test_torn_checkpoint_then_crash_replays_the_whole_log():
    """A torn checkpoint write fails cleanly: the run records the error,
    no checkpoint file is left to load, and the restart after the crash
    replays the log from offset 0."""
    reference = final_state(seed=7, ops=40)
    crashed = SimulationHarness(
        7,
        ops=40,
        fault_plan="checkpoint.write@1:torn",
        checkpoint_at=12,
        crash_at=25,
    ).run()
    assert_recovered_with_oracle(crashed)
    assert crashed["errors"] == [[12, "InjectedFaultError"]]
    assert crashed["recovery"]["checkpoint_offset"] == -1
    assert crashed["recovery"]["replayed"] > 0
    assert crashed["final"] == reference

    # Without the fault the same checkpoint is written (the next test
    # shows a restart loads it).
    report = SimulationHarness(7, ops=40, checkpoint_at=12).run()
    assert report["ok"] and report["errors"] == []
    assert report["recovered"] is False


def test_checkpoint_file_is_written_and_loadable(tmp_path, monkeypatch):
    keep_run_directory(monkeypatch, str(tmp_path))
    report = SimulationHarness(7, ops=30, checkpoint_at=15).run()
    assert report["ok"], report["violations"]
    assert report["errors"] == []
    assert len(checkpoint_files(str(tmp_path))) == 1
    payload = latest_checkpoint(str(tmp_path))
    assert payload is not None
    engine = restore(payload["engine"])
    assert engine.config.k == 3
    # The restored engine holds the queries that were live at op 15.
    assert isinstance(engine._queries, dict) and engine._queries


def test_injected_checkpoint_write_failure_leaves_no_file(
    tmp_path, monkeypatch
):
    keep_run_directory(monkeypatch, str(tmp_path))
    report = SimulationHarness(
        7, ops=30, fault_plan="checkpoint.write@1:raise", checkpoint_at=15
    ).run()
    assert report["errors"] == [[15, "InjectedFaultError"]]
    # Atomic write: the failure hit the temp file, never a checkpoint
    # name, so there is nothing for a restart to load.
    assert checkpoint_files(str(tmp_path)) == []
    assert latest_checkpoint(str(tmp_path)) is None
    assert report["ok"], report["violations"]


def test_restart_from_a_checkpoint_is_refused_as_unmonitored():
    # A checkpoint hands the restarted runtime a restored engine the
    # monitor never saw; the harness stops rather than audit nothing.
    harness = SimulationHarness(7, ops=40, checkpoint_at=12, crash_at=25)
    with pytest.raises(ReproError, match="monitor"):
        harness.run()


@pytest.mark.parametrize(
    "plan", ["eventlog.match@2:raise", "engine.publish_batch@3:raise", "engine.doc@5"]
)
def test_crash_runs_refuse_fail_stop_points(plan):
    with pytest.raises(ValueError):
        SimulationHarness(1, fault_plan=plan, crash_at=10)
    SimulationHarness(1, fault_plan=plan)  # without a crash it may run


def test_default_suite_is_green_end_to_end():
    suite = run_default_suite(29, ops=40)
    assert suite["ok"], [
        (s["scenario"], s.get("violations")) for s in suite["scenarios"]
    ]
    by_name = {s["scenario"]: s for s in suite["scenarios"]}
    for name in ("crash_recovery", "checkpoint_fault"):
        assert by_name[name]["equal"] is True
        assert_recovered_with_oracle(by_name[name])
    assert by_name["checkpoint_fault"]["recovery"]["checkpoint_offset"] == -1
    # Every fault scenario actually fired at least one fault.
    for name in (
        "engine_batch_fault",
        "mid_batch_fault",
        "ingest_fault",
        "slow_consumer_stall",
        "client_retry",
        "checkpoint_fault",
    ):
        assert by_name[name]["faults_fired"], name
