"""Determinism of the simulation harness (ISSUE 3 acceptance bar).

Two invocations with the same ``(seed, ops, fault plan)`` must produce
byte-for-byte identical JSON reports — the property the CI chaos job
relies on, and the property that makes any reported violation trivially
reproducible from its seed.
"""

from __future__ import annotations

import json
import os

from repro.experiments.cli import main as cli_main
from repro.simulation import (
    SimulationHarness,
    generate_random_plan,
    generate_schedule,
)

import random


def report_bytes(**kwargs) -> str:
    return json.dumps(SimulationHarness(**kwargs).run(), sort_keys=True)


def test_schedule_is_a_pure_function_of_the_seed():
    first = generate_schedule(random.Random(123), 60)
    second = generate_schedule(random.Random(123), 60)
    other = generate_schedule(random.Random(124), 60)
    assert first == second
    assert first != other
    assert len(first) == 60
    # The first ops always subscribe, so publishes have someone to hit.
    assert all(op["op"] == "subscribe" for op in first[:3])


def test_random_plan_is_a_pure_function_of_the_seed():
    assert str(generate_random_plan(random.Random(9))) == str(
        generate_random_plan(random.Random(9))
    )


def test_clean_run_reports_are_byte_identical():
    assert report_bytes(seed=5, ops=30) == report_bytes(seed=5, ops=30)


def test_faulted_run_reports_are_byte_identical():
    plan = "engine.doc@4:raise; consumer.pull@2:stall(3)"
    assert report_bytes(seed=5, ops=30, fault_plan=plan) == report_bytes(
        seed=5, ops=30, fault_plan=plan
    )


def test_different_seeds_diverge():
    assert report_bytes(seed=5, ops=30) != report_bytes(seed=6, ops=30)


def test_cli_simulate_is_reproducible(capsys, tmp_path):
    argv = ["simulate", "--seed", "3", "--ops", "20", "--plan",
            "engine.doc@3:raise"]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["ok"] is True
    assert report["seed"] == 3


def test_cli_simulate_writes_report_file(capsys, tmp_path):
    path = os.path.join(str(tmp_path), "reports", "sim.json")
    assert (
        cli_main(
            ["simulate", "--seed", "1", "--ops", "15", "--plan",
             "ingest.put@2:raise", "--report", path]
        )
        == 0
    )
    printed = capsys.readouterr().out
    with open(path) as handle:
        assert handle.read() == printed
    assert json.loads(printed)["fault_plan"] == "ingest.put@2:raise"
