"""Seeded, deterministic chaos runs against the serving runtime.

One :class:`SimulationHarness` run is a pure function of ``(seed, ops,
engine config, fault plan)``:

* the op schedule (subscribe / unsubscribe / publish bursts / results /
  consume) is pre-generated from ``random.Random(seed)``;
* the runtime is the production one — its matcher runs on the event
  loop, so asyncio's deterministic ready-queue ordering is the only
  scheduler — with a :class:`~repro.stream.clock.SimulationClock`'s
  ``now`` as ``time_source``, so no wall-clock value can leak into
  accepted state;
* the engine's arithmetic is plain Python floats, so floating-point
  evaluation order is identical across hosts.

After every op the :class:`~repro.simulation.invariants.InvariantMonitor`
audits result-set sizes, Lemma 1 replacement ordering, the Lemma 2
filtering bound, and oracle equivalence.  Crash-recovery runs checkpoint
at op ``c``, kill the runtime without drain at op ``m``, restore, rewind
the driver to ``c`` and replay — final result sets must equal an
unfailed reference run's (the replay-equivalence invariant).
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import tempfile
from typing import Dict, List, Optional, Tuple

from repro.config import EngineConfig, ServerConfig
from repro.core.engine import DasEngine
from repro.errors import ReproError
from repro.persistence.checkpoint import (
    checkpoint as take_checkpoint,
    restore as restore_engine,
    save as save_checkpoint,
)
from repro.server.protocol import raise_for_reply
from repro.server.runtime import ServerRuntime
from repro.server.sessions import SubscriberSession
from repro.simulation.faults import FaultInjector, FaultPlan
from repro.simulation.invariants import InstrumentedEngine, InvariantMonitor
from repro.stream.clock import SimulationClock
from repro.telemetry import CountingClock, Telemetry

#: Keyword universe of generated schedules (small, so queries overlap and
#: blocks fill up — the interesting regime for group filtering).
VOCAB = (
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta",
    "eta", "theta", "iota", "kappa", "mu", "nu",
)

#: One subscriber session per entry; ``block`` gets headroom so the
#: matcher can never deadlock against a stalled blocking consumer while
#: the driver awaits publish acks.
ACTORS = (
    {"policy": "block", "capacity": 4096},
    {"policy": "drop_oldest", "capacity": 8},
    {"policy": "coalesce", "capacity": 8},
)


def default_engine_config(**overrides) -> EngineConfig:
    """Small GIFilter engine: k=3, 4-wide blocks."""
    base = dict(k=3, block_size=4, init_scan_limit=8)
    base.update(overrides)
    return EngineConfig(**base)


def generate_schedule(
    rng: random.Random, n_ops: int, mode: str = "decay"
) -> List[Dict]:
    """A concrete op list — every choice resolved before execution.

    ``mode`` shapes the strategy-specific fields: spatial schedules give
    every query a location and most documents one (a few stay
    location-less to exercise the zero-proximity path); window schedules
    give roughly half the queries a per-query window override.  The
    decay path draws exactly the same random sequence as before the
    strategy modes existed, so seeded decay schedules are unchanged.
    """
    ops: List[Dict] = []
    for index in range(n_ops):
        roll = rng.random()
        if index < 3 or roll < 0.18:
            op = {
                "op": "subscribe",
                "actor": rng.randrange(len(ACTORS)),
                "keywords": rng.sample(VOCAB, rng.randint(2, 4)),
            }
            if mode == "spatial":
                op["location"] = [rng.random(), rng.random()]
            elif mode == "window" and rng.random() < 0.5:
                op["window"] = rng.randint(2, 12)
            ops.append(op)
        elif roll < 0.24:
            ops.append({"op": "unsubscribe", "index": rng.randrange(64)})
        elif roll < 0.72:
            burst = 1 if rng.random() < 0.6 else rng.randint(2, 4)
            op = {
                "op": "publish",
                "burst": [
                    [rng.choice(VOCAB) for _ in range(rng.randint(2, 6))]
                    for _ in range(burst)
                ],
            }
            if mode == "spatial":
                op["locations"] = [
                    (
                        [rng.random(), rng.random()]
                        if rng.random() < 0.85
                        else None
                    )
                    for _ in range(burst)
                ]
            ops.append(op)
        elif roll < 0.86:
            ops.append({"op": "results", "index": rng.randrange(64)})
        else:
            ops.append(
                {
                    "op": "consume",
                    "actor": rng.randrange(len(ACTORS)),
                    "max": rng.randint(1, 6),
                }
            )
    return ops


def generate_random_plan(rng: random.Random) -> FaultPlan:
    """A random mixed fault plan for the chaos scenario."""
    choices = (
        ("ingest.put", "raise", 0),
        ("engine.publish_batch", "raise", 0),
        ("engine.doc", "raise", 0),
        ("engine.results", "raise", 0),
        ("consumer.pull", "stall", None),
        ("client.publish", "duplicate", 0),
        ("client.publish", "delay", None),
    )
    specs = []
    for _ in range(rng.randint(2, 4)):
        point, action, arg = rng.choice(choices)
        specs.append(
            FaultPlan.parse(
                f"{point}@{rng.randint(1, 8)}:{action}"
                + (f"({rng.randint(1, 5)})" if arg is None else "")
            ).specs[0]
        )
    return FaultPlan(specs)


class SimulationHarness:
    """One deterministic chaos run; see the module docstring."""

    def __init__(
        self,
        seed: int,
        ops: int = 80,
        engine_config: Optional[EngineConfig] = None,
        fault_plan=None,
        check_oracle: bool = True,
        checkpoint_at: Optional[int] = None,
        crash_at: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
    ) -> None:
        if isinstance(fault_plan, str):
            fault_plan = FaultPlan.parse(fault_plan)
        if crash_at is not None:
            if checkpoint_at is None or checkpoint_at >= crash_at:
                raise ValueError(
                    "crash_at requires an earlier checkpoint_at"
                )
            if check_oracle:
                raise ValueError(
                    "the per-op oracle cannot be rewound across a crash; "
                    "run crash scenarios with check_oracle=False"
                )
        self.seed = seed
        self.n_ops = ops
        self.engine_config = (
            engine_config
            if engine_config is not None
            else default_engine_config()
        )
        self.plan: Optional[FaultPlan] = fault_plan
        self.check_oracle = check_oracle
        self.checkpoint_at = checkpoint_at
        self.crash_at = crash_at
        self.checkpoint_path = checkpoint_path

    def _make_telemetry(self) -> Telemetry:
        """Deterministic telemetry: a counting clock instead of wall time,
        so stage histograms are a pure function of the schedule."""
        return Telemetry(time_fn=CountingClock())

    def run(self) -> Dict:
        return asyncio.run(self._run())

    # -- internals ---------------------------------------------------------

    async def _start_runtime(
        self,
        instrumented: InstrumentedEngine,
        clock: SimulationClock,
        injector: Optional[FaultInjector],
    ) -> Tuple[ServerRuntime, List[SubscriberSession]]:
        config = ServerConfig(
            time_source=lambda: clock.now,
            fault_injector=injector,
            ingest_capacity=64,
            max_batch_size=8,
            drain_timeout=5.0,
        )
        runtime = ServerRuntime(instrumented, config)
        await runtime.start()
        sessions = [
            runtime.open_session(
                policy=actor["policy"], capacity=actor["capacity"]
            )
            for actor in ACTORS
        ]
        return runtime, sessions

    async def _run(self) -> Dict:
        schedule = generate_schedule(
            random.Random(self.seed), self.n_ops, self.engine_config.mode
        )
        clock = SimulationClock(1000.0)
        injector = self.plan.injector() if self.plan is not None else None
        engine = DasEngine(
            self.engine_config, telemetry=self._make_telemetry()
        )
        monitor = InvariantMonitor(engine, with_oracle=self.check_oracle)
        instrumented = InstrumentedEngine(engine, monitor, injector)
        runtime, sessions = await self._start_runtime(
            instrumented, clock, injector
        )

        active: List[Tuple[int, int]] = []  # (query_id, actor)
        errors: List[List] = []  # [op_index, error type]
        consumed = [0] * len(ACTORS)
        stall_until: Dict[int, int] = {}
        snapshot: Optional[Dict] = None
        crash_at = self.crash_at
        recovered = False
        checkpoint_file_error: Optional[str] = None

        index = 0
        while index < len(schedule):
            if (
                self.checkpoint_at is not None
                and index == self.checkpoint_at
                and snapshot is None
            ):
                snapshot = {
                    "payload": take_checkpoint(engine),
                    "clock": clock.now,
                    "active": [list(pair) for pair in active],
                    "errors": [list(record) for record in errors],
                    "consumed": list(consumed),
                    "schedule": list(schedule),
                    "injector": (
                        injector.snapshot() if injector is not None else None
                    ),
                }
                if self.checkpoint_path is not None:
                    try:
                        save_checkpoint(
                            engine, self.checkpoint_path, injector=injector
                        )
                    except ReproError as exc:
                        checkpoint_file_error = type(exc).__name__
                        errors.append([index, checkpoint_file_error])
            if crash_at is not None and index == crash_at:
                # Hard crash: no drain, in-memory engine state is lost.
                await runtime.stop(drain=False)
                engine = restore_engine(snapshot["payload"])
                # In-memory telemetry died with the crashed process; the
                # restored engine starts a fresh ledger (the monitor
                # re-baselines its delta checks on rebind).
                engine.attach_telemetry(self._make_telemetry())
                monitor.rebind(engine)
                instrumented = InstrumentedEngine(engine, monitor, injector)
                clock = SimulationClock(snapshot["clock"])
                if injector is not None and snapshot["injector"] is not None:
                    injector.restore(snapshot["injector"])
                active = [tuple(pair) for pair in snapshot["active"]]
                errors = [list(record) for record in snapshot["errors"]]
                consumed = list(snapshot["consumed"])
                schedule = list(snapshot["schedule"])
                stall_until = {}
                runtime, sessions = await self._start_runtime(
                    instrumented, clock, injector
                )
                crash_at = None
                recovered = True
                index = self.checkpoint_at
                continue

            monitor.op_index = index
            clock.advance(1.0)
            for actor in list(stall_until):
                if index >= stall_until[actor]:
                    await sessions[actor].set_stalled(False)
                    del stall_until[actor]
            try:
                await self._apply(
                    schedule[index],
                    index,
                    runtime,
                    sessions,
                    active,
                    consumed,
                    stall_until,
                    errors,
                    injector,
                    schedule,
                )
            except ReproError as exc:
                errors.append([index, type(exc).__name__])
            monitor.check_all()
            index += 1

        for actor in list(stall_until):
            await sessions[actor].set_stalled(False)
        for actor, session in enumerate(sessions):
            consumed[actor] += await _drain_session(session)
        monitor.op_index = len(schedule)
        monitor.check_all()
        final = {
            "clock": clock.now,
            "queries": {
                str(query_id): [
                    doc.doc_id for doc in engine.results(query_id)
                ]
                for query_id in sorted(engine._queries)
            },
        }
        await runtime.stop()
        stats = runtime.stats()
        report = {
            "seed": self.seed,
            "mode": self.engine_config.mode,
            "scheduled_ops": self.n_ops,
            "executed_ops": len(schedule),
            "fault_plan": str(self.plan) if self.plan is not None else "",
            "oracle": self.check_oracle,
            "recovered": recovered,
            "errors": errors,
            "faults_fired": injector.fired if injector is not None else [],
            "checks": dict(monitor.checks),
            "violations": [v.as_dict() for v in monitor.violations],
            "consumed": consumed,
            "final": final,
            "stats": {
                key: stats[key]
                for key in (
                    "accepted",
                    "published",
                    "disconnects",
                    "matcher_errors",
                    "delivery_errors",
                    "failed_on_stop",
                    "unflushed",
                    "coalesced",
                    "policy_drops",
                    "counters",
                    "telemetry",
                )
            },
            "ok": not monitor.violations,
        }
        if checkpoint_file_error is not None:
            report["checkpoint_file_error"] = checkpoint_file_error
        return report

    async def _apply(
        self,
        op: Dict,
        index: int,
        runtime: ServerRuntime,
        sessions: List[SubscriberSession],
        active: List[Tuple[int, int]],
        consumed: List[int],
        stall_until: Dict[int, int],
        errors: List[List],
        injector: Optional[FaultInjector],
        schedule: List[Dict],
    ) -> None:
        kind = op["op"]
        if kind == "subscribe":
            reply = await _call(
                runtime,
                sessions[op["actor"]],
                {
                    "op": "subscribe",
                    "keywords": op["keywords"],
                    "location": op.get("location"),
                    "window": op.get("window"),
                },
            )
            active.append((reply["query_id"], op["actor"]))
        elif kind == "unsubscribe":
            if active:
                query_id, _actor = active.pop(op["index"] % len(active))
                await _call(
                    runtime, None, {"op": "unsubscribe", "query_id": query_id}
                )
        elif kind == "publish":
            bursts = op["burst"]
            locations = op.get("locations") or [None] * len(bursts)
            if injector is not None:
                spec = injector.fire("client.publish")
                if spec is not None:
                    if spec.action == "duplicate":
                        # A client retry: the same payloads resubmitted.
                        bursts = bursts + bursts
                        locations = locations + locations
                    elif spec.action == "delay":
                        position = min(
                            index + 1 + max(1, spec.arg), len(schedule)
                        )
                        schedule.insert(position, op)
                        return
            acks = await asyncio.gather(
                *(
                    _call(
                        runtime,
                        None,
                        {"op": "publish", "tokens": tokens, "location": location},
                    )
                    for tokens, location in zip(bursts, locations)
                ),
                return_exceptions=True,
            )
            for ack in acks:
                if isinstance(ack, BaseException):
                    errors.append([index, type(ack).__name__])
        elif kind == "results":
            if active:
                query_id, _actor = active[op["index"] % len(active)]
                await _call(
                    runtime, None, {"op": "results", "query_id": query_id}
                )
        elif kind == "consume":
            actor = op["actor"]
            session = sessions[actor]
            if injector is not None:
                spec = injector.fire("consumer.pull")
                if spec is not None and spec.action == "stall":
                    await session.set_stalled(True)
                    stall_until[actor] = index + 1 + max(1, spec.arg)
                    return
            if session.closed or session.stalled:
                return
            for _ in range(op["max"]):
                if session.depth == 0:
                    break
                message = await session.next_message()
                if message is None:
                    break
                consumed[actor] += 1
        else:  # pragma: no cover - schedule generator invariant
            raise ReproError(f"unknown op kind {kind!r}")


async def _call(
    runtime: ServerRuntime, session: Optional[SubscriberSession], payload: Dict
) -> Dict:
    """One op through the runtime's protocol entry; a refusal re-raised."""
    return raise_for_reply(await runtime.handle_request(session, payload))


async def _drain_session(session: SubscriberSession) -> int:
    """Consume everything still queued; returns the message count."""
    count = 0
    while session.depth > 0:
        message = await session.next_message()
        if message is None:
            break
        count += 1
    return count


def run_default_suite(
    seed: int, ops: int = 80, engine_config: Optional[EngineConfig] = None
) -> Dict:
    """The acceptance suite: one report per fault scenario, one seed.

    Every scenario replays the same seeded schedule under a different
    fault plan; ``crash_recovery`` additionally compares its final state
    to the unfailed ``clean`` run.  The returned dict is JSON-safe and
    deterministic — dumping it with ``sort_keys=True`` is byte-for-byte
    reproducible for a given seed.
    """
    scenarios: List[Dict] = []

    def run_scenario(name: str, plan=None, **kwargs) -> Dict:
        harness = SimulationHarness(
            seed, ops=ops, engine_config=engine_config,
            fault_plan=plan, **kwargs,
        )
        report = harness.run()
        report["scenario"] = name
        scenarios.append(report)
        return report

    clean = run_scenario("clean")
    run_scenario("engine_batch_fault", "engine.publish_batch@3:raise")
    run_scenario("mid_batch_fault", "engine.doc@7:raise")
    run_scenario("ingest_fault", "ingest.put@5:raise*2")
    run_scenario("results_fault", "engine.results@2:raise")
    run_scenario("slow_consumer_stall", "consumer.pull@2:stall(6)")
    run_scenario(
        "client_retry",
        "client.publish@3:duplicate; client.publish@6:delay(4)",
    )
    run_scenario(
        "chaos", generate_random_plan(random.Random(seed ^ 0x9E3779B9))
    )

    # Checkpoint write failure: the atomic save must fail cleanly and
    # leave no (partial) checkpoint behind.
    tmpdir = tempfile.mkdtemp(prefix="repro-sim-")
    try:
        path = os.path.join(tmpdir, "ckpt.json")
        report = run_scenario(
            "checkpoint_fault",
            "checkpoint.write@1:raise",
            checkpoint_at=max(1, ops // 3),
            checkpoint_path=path,
        )
        report["checkpoint_file_absent"] = not os.path.exists(path)
        report["ok"] = report["ok"] and report["checkpoint_file_absent"]
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    # Crash-recovery equivalence: checkpoint -> kill -> restore -> replay
    # must converge to the unfailed reference run's result sets.
    crashed = SimulationHarness(
        seed,
        ops=ops,
        engine_config=engine_config,
        check_oracle=False,
        checkpoint_at=max(1, ops // 3),
        crash_at=max(2, (2 * ops) // 3),
    ).run()
    equal = crashed["final"] == clean["final"]
    scenarios.append(
        {
            "scenario": "crash_recovery",
            "equal": equal,
            "recovered": crashed["recovered"],
            "reference_final": clean["final"],
            "crashed_final": crashed["final"],
            "checks": crashed["checks"],
            "violations": crashed["violations"],
            "ok": equal
            and crashed["recovered"]
            and not crashed["violations"],
        }
    )

    return {
        "seed": seed,
        "ops": ops,
        "scenarios": scenarios,
        "ok": all(scenario["ok"] for scenario in scenarios),
    }
