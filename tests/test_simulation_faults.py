"""Fault-plan DSL, injector mechanics, and fault-scenario outcomes."""

from __future__ import annotations

import pytest

from repro.config import ServerConfig
from repro.errors import ConfigurationError, InjectedFaultError
from repro.simulation import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    HARNESS_ACTIONS,
    INJECTION_POINTS,
    RAISING_ACTIONS,
    SimulationHarness,
)


# -- DSL parsing ---------------------------------------------------------


def test_parse_minimal_spec_defaults_to_raise():
    spec = FaultSpec.parse("engine.publish_batch@3")
    assert spec == FaultSpec("engine.publish_batch", 3)
    assert spec.action == "raise"
    assert spec.count == 1


def test_parse_full_spec():
    spec = FaultSpec.parse("consumer.pull@2:stall(6)*3")
    assert spec.point == "consumer.pull"
    assert spec.at == 2
    assert spec.action == "stall"
    assert spec.arg == 6
    assert spec.count == 3


@pytest.mark.parametrize(
    "token",
    [
        "bogus.point@1",  # unknown injection point
        "engine.doc@1:explode",  # unknown action
        "engine.doc@0",  # at must be >= 1
        "engine.doc@1*0",  # count must be >= 1
        "engine.doc",  # missing @at
        "@3:raise",  # missing point
    ],
)
def test_malformed_specs_raise_configuration_error(token):
    with pytest.raises(ConfigurationError):
        FaultSpec.parse(token)


def test_spec_str_round_trips():
    for token in (
        "engine.doc@4",
        "tcp.write@1:torn",
        "consumer.pull@2:stall(6)",
        "ingest.put@5:raise*2",
    ):
        assert str(FaultPlan.parse(token).specs[0]) == str(
            FaultSpec.parse(token)
        )
        assert FaultSpec.parse(str(FaultSpec.parse(token))) == FaultSpec.parse(
            token
        )


def test_plan_parses_semicolon_and_comma_lists():
    plan = FaultPlan.parse("engine.doc@1; tcp.write@2:torn, ingest.put@3")
    assert len(plan.specs) == 3
    assert bool(plan)
    assert not bool(FaultPlan.parse(""))
    assert str(plan) == "engine.doc@1:raise; tcp.write@2:torn; ingest.put@3:raise"


def test_every_action_is_classified():
    assert set(RAISING_ACTIONS) & set(HARNESS_ACTIONS) == set()
    assert "raise" in RAISING_ACTIONS
    assert "stall" in HARNESS_ACTIONS
    assert "eventlog.fault" in INJECTION_POINTS
    assert "eventlog.match" in INJECTION_POINTS
    assert len(INJECTION_POINTS) == 10
    # The scale-out shapes' points and actions went with them.
    assert not {"worker.publish_batch", "node.fault"} & set(INJECTION_POINTS)
    assert not {"kill", "partition"} & set(HARNESS_ACTIONS)


# -- injector mechanics --------------------------------------------------


def test_injector_fires_on_the_configured_arrival_window():
    injector = FaultPlan.parse("ingest.put@3:raise*2").injector()
    injector.fire("ingest.put")  # arrival 1: quiet
    injector.fire("ingest.put")  # arrival 2: quiet
    with pytest.raises(InjectedFaultError) as excinfo:
        injector.fire("ingest.put")  # arrival 3: fires
    assert excinfo.value.point == "ingest.put"
    assert excinfo.value.action == "raise"
    with pytest.raises(InjectedFaultError):
        injector.fire("ingest.put")  # arrival 4: still in the window
    assert injector.fire("ingest.put") is None  # budget exhausted
    assert injector.arrivals("ingest.put") == 5
    assert [record["arrival"] for record in injector.fired] == [3, 4]


def test_harness_actions_are_returned_not_raised():
    injector = FaultPlan.parse("consumer.pull@1:stall(4)").injector()
    spec = injector.fire("consumer.pull")
    assert spec is not None and spec.action == "stall" and spec.arg == 4
    assert injector.fire("consumer.pull") is None


def test_points_count_arrivals_independently():
    injector = FaultPlan.parse("engine.doc@2").injector()
    injector.fire("ingest.put")
    injector.fire("ingest.put")
    assert injector.fire("engine.doc") is None  # engine.doc arrival 1
    with pytest.raises(InjectedFaultError):
        injector.fire("engine.doc")  # engine.doc arrival 2


def test_server_config_rejects_injector_without_fire():
    with pytest.raises(ConfigurationError):
        ServerConfig(fault_injector=object())
    assert ServerConfig().fault_injector is None  # zero-cost default


# -- fault scenarios end-to-end ------------------------------------------


def run_harness(plan, **kwargs):
    kwargs.setdefault("ops", 40)
    return SimulationHarness(11, fault_plan=plan, **kwargs).run()


def test_engine_batch_fault_is_contained_and_reported():
    report = run_harness("engine.publish_batch@2:raise")
    assert report["ok"], report["violations"]
    assert any(
        record["point"] == "engine.publish_batch"
        for record in report["faults_fired"]
    )
    assert any(kind == "InjectedFaultError" for _i, kind in report["errors"])
    assert report["stats"]["matcher_errors"] >= 1


def test_mid_batch_fault_keeps_invariants_green():
    report = run_harness("engine.doc@5:raise")
    assert report["ok"], report["violations"]
    assert any(kind == "InjectedFaultError" for _i, kind in report["errors"])


def test_ingest_fault_rejects_the_publish_only():
    report = run_harness("ingest.put@3:raise*2")
    assert report["ok"], report["violations"]
    fired = [r for r in report["faults_fired"] if r["point"] == "ingest.put"]
    assert len(fired) == 2


def test_consumer_stall_delays_but_loses_nothing():
    report = run_harness("consumer.pull@1:stall(5)")
    assert report["ok"], report["violations"]
    # Stalled deliveries surface later (end-of-run drain), not never.
    assert sum(report["consumed"]) > 0


def test_client_retry_duplicate_and_delay_stay_consistent():
    report = run_harness(
        "client.publish@2:duplicate; client.publish@4:delay(3)"
    )
    assert report["ok"], report["violations"]
    # The delayed op re-enters the schedule, so more ops execute than
    # were scheduled.
    assert report["executed_ops"] >= report["scheduled_ops"]
