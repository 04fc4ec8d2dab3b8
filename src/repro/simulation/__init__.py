"""Deterministic fault-injection and invariant-checking harness.

Wraps the serving runtime (:mod:`repro.server`) and the DAS engine in a
seeded simulation: reproducible async interleavings via the runtime's
one-thread matcher + a :class:`~repro.stream.clock.SimulationClock` as
``time_source``, fault injection via the :class:`FaultPlan` DSL, and
per-op auditing of the paper's invariants via :class:`InvariantMonitor`.
See DESIGN.md §9.
"""

from repro.simulation.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    HARNESS_ACTIONS,
    INJECTION_POINTS,
    RAISING_ACTIONS,
)
from repro.simulation.harness import (
    SimulationHarness,
    default_engine_config,
    generate_random_plan,
    generate_schedule,
    run_default_suite,
)
from repro.simulation.invariants import (
    InstrumentedEngine,
    InvariantMonitor,
    InvariantViolation,
)
from repro.simulation.eventlog import run_kill9_suite

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "HARNESS_ACTIONS",
    "INJECTION_POINTS",
    "InstrumentedEngine",
    "InvariantMonitor",
    "InvariantViolation",
    "RAISING_ACTIONS",
    "SimulationHarness",
    "default_engine_config",
    "generate_random_plan",
    "generate_schedule",
    "run_default_suite",
    "run_kill9_suite",
]
