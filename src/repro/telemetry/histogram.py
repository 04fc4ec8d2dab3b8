"""Fixed-bucket latency histograms with a JSON-safe wire form.

The histogram is the telemetry layer's only latency primitive: a fixed,
strictly increasing tuple of bucket upper bounds (Prometheus ``le``
semantics — a bucket counts observations ``<=`` its bound) plus one
overflow bucket and a running sum.

The wire form (:meth:`to_wire` / :meth:`from_wire`) is a JSON-safe dict,
so histograms cross the checkpoint layer and the NDJSON stats surface
without a custom codec.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Sequence

#: Default bucket upper bounds in seconds: 1 µs .. 2.5 s in a
#: 1 / 2.5 / 5 decade ladder, wide enough for both the engine's
#: per-stage times and the serving pipeline's queue waits.
DEFAULT_BOUNDS = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5,
)


class LatencyHistogram:
    """A fixed-bucket histogram of non-negative durations (seconds)."""

    __slots__ = ("bounds", "counts", "sum")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        bounds = tuple(float(bound) for bound in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError(
                f"bucket bounds must be strictly increasing, got {bounds}"
            )
        self.bounds = bounds
        #: Per-bucket counts; the final slot is the +Inf overflow bucket.
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.sum = 0.0

    @property
    def count(self) -> int:
        return sum(self.counts)

    def observe(self, value: float) -> None:
        """Record one duration; negative values are a caller bug."""
        if value < 0:
            raise ValueError(f"duration must be >= 0, got {value}")
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return (
            self.bounds == other.bounds
            and self.counts == other.counts
            and self.sum == other.sum
        )

    def __repr__(self) -> str:
        return (
            f"LatencyHistogram(count={self.count}, sum={self.sum!r}, "
            f"buckets={len(self.bounds) + 1})"
        )

    # -- wire form ---------------------------------------------------------

    def to_wire(self) -> Dict:
        """JSON-safe form: bounds, per-bucket counts, sum."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
        }

    @classmethod
    def from_wire(cls, payload: Dict) -> "LatencyHistogram":
        histogram = cls(payload["bounds"])
        counts = [int(count) for count in payload["counts"]]
        if len(counts) != len(histogram.counts):
            raise ValueError(
                f"wire payload has {len(counts)} buckets, expected "
                f"{len(histogram.counts)}"
            )
        histogram.counts = counts
        histogram.sum = float(payload["sum"])
        return histogram

    def cumulative(self) -> List[int]:
        """Cumulative ``le`` counts (Prometheus exposition order)."""
        total = 0
        out = []
        for count in self.counts:
            total += count
            out.append(total)
        return out

