"""Fault-plan DSL and the injector threaded through the hot path.

A fault plan is a semicolon-separated list of fault specs::

    point@at[:action[(arg)]][*count]

    engine.publish_batch@3:raise        # 3rd batch submission raises
    consumer.pull@2:stall(6)            # 2nd consume stalls for 6 ops
    tcp.write@1:torn                    # 1st frame written is cut in half
    ingest.put@5:raise*2                # arrivals 5 and 6 both raise

``at`` counts *arrivals at that injection point* (1-based), so a plan is
meaningful independent of what else the schedule does.  Raising actions
(``raise``, ``disconnect``, ``torn``) make :meth:`FaultInjector.fire`
raise :class:`~repro.errors.InjectedFaultError` at the production call
site; harness actions (``stall``, ``delay``, ``duplicate``) are returned
to the simulation driver, which interprets them (production code never
sees them).

Production call sites guard with ``if injector is not None`` — with the
default ``ServerConfig.fault_injector = None`` the whole machinery costs
one attribute check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, InjectedFaultError

#: Every injection point threaded through the production/harness path.
INJECTION_POINTS = (
    "ingest.put",  # a submitted publish, before the queue put
    "engine.publish_batch",  # matcher, before the engine batch call
    "engine.doc",  # InstrumentedEngine, before each document of a batch
    "engine.results",  # matcher results op + coalesce snapshot reads
    "tcp.write",  # NdjsonTcpServer, before each outgoing frame
    "checkpoint.write",  # persistence.checkpoint.save, mid-write
    "client.publish",  # harness: before submitting a publish op
    "consumer.pull",  # harness: before a consume op
    "eventlog.fault",  # EventLog.append_many, before any byte is written;
    #   torn writes half the first record's line and poisons the handle
    "eventlog.match",  # matcher, post-append / pre-match — the crash
    #   window where a logged op has not yet touched the engine
)

#: Actions that raise InjectedFaultError at the call site.
RAISING_ACTIONS = ("raise", "disconnect", "torn")

#: Actions interpreted by the simulation driver, not production code.
HARNESS_ACTIONS = ("stall", "delay", "duplicate")

_SPEC_RE = re.compile(
    r"^(?P<point>[\w.]+)@(?P<at>\d+)"
    r"(?::(?P<action>\w+)(?:\((?P<arg>\d+)\))?)?"
    r"(?:\*(?P<count>\d+))?$"
)


@dataclass(frozen=True)
class FaultSpec:
    """One injection: fire ``action`` on arrivals ``at .. at+count-1``."""

    point: str
    at: int
    action: str = "raise"
    arg: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        if self.point not in INJECTION_POINTS:
            raise ConfigurationError(
                f"unknown injection point {self.point!r}; expected one of "
                f"{INJECTION_POINTS}"
            )
        if self.action not in RAISING_ACTIONS + HARNESS_ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}; expected one of "
                f"{RAISING_ACTIONS + HARNESS_ACTIONS}"
            )
        if self.at < 1:
            raise ConfigurationError(f"at must be >= 1, got {self.at}")
        if self.count < 1:
            raise ConfigurationError(f"count must be >= 1, got {self.count}")
        if self.arg < 0:
            raise ConfigurationError(f"arg must be >= 0, got {self.arg}")

    @classmethod
    def parse(cls, token: str) -> "FaultSpec":
        match = _SPEC_RE.match(token.strip())
        if match is None:
            raise ConfigurationError(
                f"malformed fault spec {token!r}; expected "
                f"point@at[:action[(arg)]][*count]"
            )
        return cls(
            point=match.group("point"),
            at=int(match.group("at")),
            action=match.group("action") or "raise",
            arg=int(match.group("arg") or 0),
            count=int(match.group("count") or 1),
        )

    def __str__(self) -> str:
        text = f"{self.point}@{self.at}:{self.action}"
        if self.arg:
            text += f"({self.arg})"
        if self.count > 1:
            text += f"*{self.count}"
        return text


class FaultPlan:
    """An ordered collection of fault specs, parseable from the DSL."""

    def __init__(self, specs: Sequence[FaultSpec]) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        tokens = [t for t in re.split(r"[;,]", text) if t.strip()]
        return cls([FaultSpec.parse(token) for token in tokens])

    def injector(self) -> "FaultInjector":
        return FaultInjector(self.specs)

    def __str__(self) -> str:
        return "; ".join(str(spec) for spec in self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __repr__(self) -> str:
        return f"FaultPlan({str(self)!r})"


class FaultInjector:
    """Arrival counter + spec matcher behind every injection point.

    ``fire(point)`` counts the arrival and, when a spec matches, either
    raises :class:`InjectedFaultError` (raising actions) or returns the
    matched :class:`FaultSpec` (harness actions).  Returns ``None`` when
    nothing fires — production call sites ignore the return value.
    """

    def __init__(self, specs: Sequence[FaultSpec]) -> None:
        #: Mutable firing state per spec: remaining fire budget.
        self._states: List[List] = [[spec, spec.count] for spec in specs]
        self._arrivals: Dict[str, int] = {}
        #: Chronological record of fired faults (goes into the report).
        self.fired: List[Dict] = []

    def fire(self, point: str) -> Optional[FaultSpec]:
        arrival = self._arrivals.get(point, 0) + 1
        self._arrivals[point] = arrival
        hit: Optional[FaultSpec] = None
        for state in self._states:
            spec: FaultSpec = state[0]
            if spec.point != point or state[1] <= 0:
                continue
            if spec.at <= arrival < spec.at + spec.count:
                state[1] -= 1
                hit = spec
                break
        if hit is None:
            return None
        self.fired.append(
            {
                "point": point,
                "arrival": arrival,
                "action": hit.action,
                "arg": hit.arg,
            }
        )
        if hit.action in RAISING_ACTIONS:
            exc = InjectedFaultError(
                f"injected {hit.action} at {point}#{arrival}"
            )
            exc.point = point
            exc.action = hit.action
            exc.arg = hit.arg
            raise exc
        return hit

    def arrivals(self, point: str) -> int:
        return self._arrivals.get(point, 0)

    # -- crash-recovery support -------------------------------------------

    def snapshot(self) -> Tuple:
        """Opaque firing state, rewindable so a replayed op tail sees the
        same faults as the pre-crash execution."""
        return (
            dict(self._arrivals),
            [state[1] for state in self._states],
            [dict(record) for record in self.fired],
        )

    def restore(self, state: Tuple) -> None:
        arrivals, remaining, fired = state
        self._arrivals = dict(arrivals)
        for spec_state, budget in zip(self._states, remaining):
            spec_state[1] = budget
        self.fired = [dict(record) for record in fired]
