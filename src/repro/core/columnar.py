"""Kept only for the ``benchmarks/e2e/tracing.py`` import until a ``benchmark`` PR drops its rows; imported by nothing under ``src/repro``.

Columnar mirrors of per-query summary state (ISSUE 6 tentpole) — the
engine stopped building them in ISSUE 21 (DESIGN.md §12).

The scalar block-metadata refresh (:meth:`PostingsBlock.refresh_metadata`)
walks every member's result set and recomputes ``static_dr_oldest`` from
scratch — an O(members × k) pass per dirty block.  The engine already
*knows* each query's oldest-entry summary the moment a result set
changes; this module keeps those three scalars (static DR of the oldest
result, its TRel, its creation time) in parallel numpy arrays indexed by
a stable per-query slot, so a dirty block refreshes with one vectorized
gather + min/max reduction instead of a Python loop.

Bit-identity contract: ``update`` stores values produced by the *same*
scalar code path (``QueryResultSet.static_dr_oldest``) that the scalar
refresh would call, as float64.  A min/max over identical float64s is
order-independent and exact, so columnar and scalar refreshes yield
bit-identical block summaries.

The mirror is an acceleration structure only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised via engines, not direct import
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

_INITIAL_CAPACITY = 64


class QuerySummaryColumns:
    """Slot-addressed columnar store of per-query oldest-result summaries.

    Columns (all float64 / bool, parallel, capacity-doubled):

    - ``static_dr``: ``alpha*TRel(d_e) + coeff*((k-1) - sim_acc(d_e))``
      for the oldest result ``d_e`` — the static part of Eq. 13's
      threshold, exactly as :meth:`QueryResultSet.static_dr_oldest`
      computes it.
    - ``trel_de``: the oldest result's cached TRel.
    - ``created_de``: the oldest result's creation timestamp.
    - ``filled``: True iff the query's result set holds k results
      (warm-up queries don't participate in block thresholds).

    Slots are recycled through a free list so long-running subscribe /
    unsubscribe churn doesn't grow the arrays unboundedly.
    """

    __slots__ = (
        "static_dr",
        "trel_de",
        "created_de",
        "filled",
        "slot_of",
        "_free",
        "_next",
    )

    def __init__(self) -> None:
        if np is None:  # pragma: no cover - guarded by engine gating
            raise RuntimeError("QuerySummaryColumns requires numpy")
        capacity = _INITIAL_CAPACITY
        self.static_dr = np.zeros(capacity, dtype=np.float64)
        self.trel_de = np.zeros(capacity, dtype=np.float64)
        self.created_de = np.zeros(capacity, dtype=np.float64)
        self.filled = np.zeros(capacity, dtype=np.bool_)
        self.slot_of: Dict[int, int] = {}
        self._free: List[int] = []
        self._next = 0

    def _grow_to(self, capacity: int) -> None:
        current = len(self.static_dr)
        new_capacity = current
        while new_capacity < capacity:
            new_capacity *= 2
        if new_capacity == current:
            return
        for name in ("static_dr", "trel_de", "created_de"):
            old = getattr(self, name)
            grown = np.zeros(new_capacity, dtype=np.float64)
            grown[:current] = old
            setattr(self, name, grown)
        grown_filled = np.zeros(new_capacity, dtype=np.bool_)
        grown_filled[:current] = self.filled
        self.filled = grown_filled

    def assign(self, query_id: int) -> int:
        """Allocate (or return) the slot for ``query_id``."""
        slot = self.slot_of.get(query_id)
        if slot is not None:
            return slot
        if self._free:
            slot = self._free.pop()
        else:
            slot = self._next
            self._next += 1
            self._grow_to(self._next)
        self.slot_of[query_id] = slot
        self.filled[slot] = False
        return slot

    def release(self, query_id: int) -> None:
        """Return ``query_id``'s slot to the free list."""
        slot = self.slot_of.pop(query_id, None)
        if slot is None:
            return
        self.filled[slot] = False
        self._free.append(slot)

    def update(self, query_id: int, result_set, alpha: float, coeff: float) -> None:
        """Refresh ``query_id``'s columns from its (scalar) result set."""
        slot = self.slot_of.get(query_id)
        if slot is None:
            slot = self.assign(query_id)
        if not result_set.is_full:
            self.filled[slot] = False
            return
        oldest = result_set.oldest
        self.static_dr[slot] = result_set.static_dr_oldest(alpha, coeff)
        self.trel_de[slot] = oldest.trel
        self.created_de[slot] = oldest.document.created_at
        self.filled[slot] = True

    def slots_for(self, query_ids: Sequence[int]):
        """Slot index array for ``query_ids``; None if any id is unknown."""
        slot_of = self.slot_of
        try:
            slots = [slot_of[query_id] for query_id in query_ids]
        except KeyError:
            return None
        return np.asarray(slots, dtype=np.intp)

    def summarize(self, slots) -> Optional[Tuple[float, float, float]]:
        """``(dtrel_min, trel_max_de, earliest_de)`` over ``slots``.

        Returns None when any member is unfilled (warm-up) — the caller
        falls back to the scalar refresh, which knows how to skip
        unfilled members.
        """
        filled = self.filled.take(slots)
        if not filled.all():
            return None
        static = self.static_dr.take(slots)
        trel = self.trel_de.take(slots)
        created = self.created_de.take(slots)
        return (
            float(static.min()),
            # The scalar refresh seeds trel_max at 0.0; clamp to match.
            max(0.0, float(trel.max())),
            float(created.min()),
        )
