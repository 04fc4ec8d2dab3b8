"""Hypothesis chaos tests: invariants hold for *arbitrary* seeds/plans.

The curated scenarios in the default suite pin down known failure
modes; these tests let Hypothesis search the seed and fault-plan space
for new ones.  Example counts are modest (each example is a full
simulated server run) but any failure shrinks to a minimal seed that
reproduces byte-for-byte via ``repro simulate --seed N``.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simulation import (
    FaultPlan,
    SimulationHarness,
    generate_random_plan,
)
from repro.simulation.harness import FAIL_STOP_POINTS

CHAOS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@CHAOS
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_any_seed_runs_clean(seed):
    report = SimulationHarness(seed, ops=25).run()
    assert report["ok"], report["violations"]
    assert report["errors"] == []


@CHAOS
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_any_seed_survives_a_random_fault_plan(seed):
    plan = generate_random_plan(random.Random(seed))
    report = SimulationHarness(seed, ops=25, fault_plan=plan).run()
    assert report["ok"], (str(plan), report["violations"])


@CHAOS
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    point=st.sampled_from(
        ["ingest.put", "engine.publish_batch", "engine.doc", "engine.results"]
    ),
    at=st.integers(min_value=1, max_value=10),
    count=st.integers(min_value=1, max_value=3),
)
def test_any_raising_fault_never_corrupts_state(seed, point, at, count):
    plan = f"{point}@{at}:raise*{count}"
    report = SimulationHarness(seed, ops=25, fault_plan=plan).run()
    assert report["ok"], (plan, report["violations"])


@CHAOS
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    crash_at=st.integers(min_value=1, max_value=24),
)
def test_any_crash_converges_to_the_uninterrupted_run(seed, crash_at):
    # Faults between a batch's append and its match fail-stop a durable
    # runtime, so they are left out of a crash run's plan.
    plan = FaultPlan(
        [
            spec
            for spec in generate_random_plan(random.Random(seed)).specs
            if spec.point not in FAIL_STOP_POINTS
        ]
    )
    reference = SimulationHarness(seed, ops=25, fault_plan=plan).run()
    crashed = SimulationHarness(
        seed, ops=25, fault_plan=plan, crash_at=crash_at
    ).run()
    assert crashed["ok"], (str(plan), crashed["violations"])
    assert crashed["recovered"] and crashed["checks"]["oracle"] > 0
    assert crashed["final"] == reference["final"], str(plan)


@given(
    specs=st.lists(
        st.tuples(
            st.sampled_from(["engine.doc", "ingest.put", "tcp.write"]),
            st.integers(min_value=1, max_value=99),
            st.sampled_from(["raise", "torn", "stall", "delay"]),
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=1, max_value=9),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_fault_plan_dsl_round_trips(specs):
    text = "; ".join(
        f"{point}@{at}:{action}"
        + (f"({arg})" if arg else "")
        + (f"*{count}" if count > 1 else "")
        for point, at, action, arg, count in specs
    )
    plan = FaultPlan.parse(text)
    assert FaultPlan.parse(str(plan)).specs == plan.specs
