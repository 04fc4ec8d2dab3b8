"""Shared measurement helpers: percentiles, RSS readers, the run record."""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: One result-set change as compared and hashed: (doc, query, replaced).
Change = Tuple[int, int, int]

#: Seconds one reference probe takes on the container the workloads were
#: sized on, when that container is quiet.  It only fixes the unit.
NOMINAL_PROBE_S = 0.00052


def _reference_loop() -> int:
    """Fixed interpreter work; one small dict per call, so it all but
    never triggers a garbage-collection pass of its own."""
    total = 0
    table = {}
    for i in range(6000):
        table[i & 255] = total
        total += i * i % 7
    return total


class SpeedGauge:
    """Wall time re-expressed at the reference machine's speed.

    The sandboxes this runs in change speed by 30-40 % for seconds to
    minutes at a time, for every kind of code at once, which buries a
    10 % regression.  So the harness cuts each phase into blocks of a few
    operations and runs a fixed reference loop between blocks: a block
    whose neighbouring probes took 1.3x their nominal time had its own
    wall time stretched by about that much, and is scaled back.  Probe
    time is never part of a block.

    The probe corrects the core it runs on, and the two cores of such a
    sandbox change speed independently.  That is exact for the in-process
    workloads (same thread, same core).  The served workload's generator
    can only probe its own core, so there it removes what the cores have
    in common and the numbers stay noisier (probing the server's core
    from outside was tried: the probe then competes with the server and
    measures the time-sharing, not the core).
    """

    def __init__(self) -> None:
        #: Raw wall seconds of each closed block, and of the probe after it.
        self.blocks: List[float] = []
        self.probes: List[float] = []
        self._started = time.perf_counter()

    @property
    def block(self) -> int:
        """Index of the open block; stamp operations with it."""
        return len(self.blocks)

    def close_block(self) -> None:
        closed = time.perf_counter()
        _reference_loop()
        probed = time.perf_counter()
        self.blocks.append(closed - self._started)
        self.probes.append(probed - closed)
        self._started = probed

    def factors(self) -> List[float]:
        """Per block: nominal over observed probe time, the observed
        being the median of the five probes around the block."""
        probes = self.probes
        return [
            NOMINAL_PROBE_S / statistics.median(probes[max(0, i - 2): i + 3])
            for i in range(len(probes))
        ]

    def seconds(self, first: int = 0, last: Optional[int] = None) -> float:
        """Normalised wall time of blocks ``first`` up to ``last``."""
        factors = self.factors()[first:last]
        return sum(b * f for b, f in zip(self.blocks[first:last], factors))

    def raw_seconds(self, first: int = 0, last: Optional[int] = None) -> float:
        return sum(self.blocks[first:last])

    def normalised(self, seconds: Sequence[float], stamps: Sequence[int]) -> List[float]:
        """Operation durations scaled by the factor of their block."""
        factors = self.factors()
        return [s * factors[b] for s, b in zip(seconds, stamps)]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def latency_profile_ms(seconds: Sequence[float]) -> Dict[str, float]:
    """The shape behind the gated median, for the noise report and the
    per-layer tail percentiles."""
    profile = {
        f"p{int(q * 100)}": percentile(seconds, q) * 1e3
        for q in (0.25, 0.50, 0.75, 0.90, 0.95, 0.99)
    }
    profile["max"] = max(seconds) * 1e3
    profile["n"] = len(seconds)
    return profile


def proc_status_kb(pid: object, key: str) -> float:
    """``VmRSS`` / ``VmHWM`` of a process in kB (``pid`` may be "self")."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return float(line.split()[1])
    raise RuntimeError(f"{key} not in /proc/{pid}/status")


def change_of(notification) -> Change:
    replaced = notification.replaced
    return (
        notification.document.doc_id,
        notification.query_id,
        replaced.doc_id if replaced is not None else -1,
    )


def stream_digest(changes: Iterable[Change]) -> str:
    """SHA-256 of the change stream in (doc, query) order.

    Within one document the engine emits changes in traversal order,
    which a layout change may legitimately alter; across documents the
    order is the stream's.  Sorting makes the digest depend on *what*
    changed only.
    """
    digest = hashlib.sha256()
    for change in sorted(changes):
        digest.update(b"%d,%d,%d;" % change)
    return digest.hexdigest()


@dataclass
class RunRecord:
    """Everything one run measured; ``run.py`` turns it into the result."""

    #: End-to-end metric values by name.
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Reasons the outputs were judged wrong (empty = correct).
    errors: List[str] = field(default_factory=list)
    digest: str = ""
    counters: Dict[str, int] = field(default_factory=dict)
    #: Steps per second of each measured round, in order.
    round_rates: List[float] = field(default_factory=list)
    measured_wall_s: float = 0.0
    measured_cpu_s: float = 0.0
    #: Anything else worth keeping in the noise report.
    notes: Dict[str, object] = field(default_factory=dict)
