"""Simulation clock.

Recency (Eq. 4) depends on ``t_cur``; to keep experiments deterministic
and engines comparable, time is owned by an explicit clock object that the
experiment driver advances rather than the wall clock.
"""

from __future__ import annotations

from repro.errors import DocumentOrderError


class SimulationClock:
    """Monotonic simulated time in seconds."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; negative deltas are rejected."""
        if seconds < 0.0:
            raise ValueError(f"cannot move time backwards (delta={seconds})")
        self._now += seconds
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Jump to an absolute time not earlier than the current one."""
        if timestamp < self._now:
            raise ValueError(
                f"cannot move time backwards (now={self._now}, to={timestamp})"
            )
        self._now = float(timestamp)
        return self._now

    def __repr__(self) -> str:
        return f"SimulationClock(now={self._now:.3f})"


def require_not_before(clock: SimulationClock, document) -> None:
    """Refuse ``document`` if it was created before ``clock.now``.

    An engine treats the document it is publishing as current
    (``T(d_n) = 1``) while the brute-force oracle decays it by
    ``now - created_at``, so a document behind the clock would make the
    two disagree.  Engines call this before any state changes; ``not >=``
    refuses a NaN time as well.
    """
    if not document.created_at >= clock.now:
        raise DocumentOrderError(
            f"document {document.doc_id} created_at {document.created_at} "
            f"is before the engine clock {clock.now}"
        )
