"""Aggregated term weight summaries (Definition 7, Lemma 6) and the
``Φ_max`` memory budget that governs the R1/R2 result split (Section 7.1).

For a document set ``S`` the summary stores, per term,

    AW(w, S) = Σ_{d ∈ S, w ∈ d}  tf_d(w) / ||d||

so that the similarity mass of a new document against the whole set is a
single sparse dot product (Lemma 6):

    Σ_{d ∈ S} Sim(d, d_n) = Σ_{w ∈ d_n} AW(w, S) · tf_n(w) / ||d_n||
"""

from __future__ import annotations

from typing import Dict

from repro.config import UNLIMITED
from repro.text.vectors import TermVector

#: Accumulated float weights below this magnitude are treated as zero and
#: dropped, so add/remove churn does not leak dictionary entries.
_ZERO_TOLERANCE = 1e-12


class AggregatedTermWeights:
    """Incrementally maintained ``AW`` table for one document set."""

    __slots__ = ("_weights",)

    def __init__(self) -> None:
        self._weights: Dict[str, float] = {}

    @property
    def entry_count(self) -> int:
        """Number of (term, weight) entries — the unit ``Φ_max`` meters."""
        return len(self._weights)

    def weight(self, term: str) -> float:
        return self._weights.get(term, 0.0)

    def add_document(self, vector: TermVector) -> None:
        """Fold one document's unit weights into the table.

        A term the table does not hold yet stores the vector's own
        ``units`` float — the value ``0.0 + unit`` would give, without a
        new float per entry."""
        weights = self._weights
        get = weights.get
        for term, unit in zip(vector._tf, vector.units):
            weight = get(term)
            weights[term] = unit if weight is None else weight + unit

    def remove_document(self, vector: TermVector) -> None:
        """Subtract a previously added document's unit weights."""
        weights = self._weights
        for term, unit in zip(vector._tf, vector.units):
            remaining = weights.get(term, 0.0) - unit
            if abs(remaining) <= _ZERO_TOLERANCE:
                weights.pop(term, None)
            else:
                weights[term] = remaining

    def similarity_sum(self, vector: TermVector) -> float:
        """Lemma 6: ``Σ_{d∈S} Sim(d, vector)`` in one pass over ``vector``."""
        norm = vector.norm
        if norm == 0.0 or not self._weights:
            return 0.0
        weights = self._weights
        total = 0.0
        for term, count in vector.items():
            aw = weights.get(term)
            if aw is not None:
                total += aw * count
        return total / norm


class MemoryBudget:
    """Engine-wide accountant for aggregated-weight entries (``Φ_max``).

    The budget is shared across all queries of an engine: a document is
    admitted to ``R1`` (summarised) only if its distinct-term count still
    fits, otherwise it goes to ``R2`` and its similarities are computed
    per document (Section 7.1, "Update of Aggregated Term Weight
    Summaries").
    """

    __slots__ = ("_capacity", "_used")

    def __init__(self, capacity: int = UNLIMITED) -> None:
        if capacity != UNLIMITED and capacity < 0:
            raise ValueError(f"capacity must be >= 0 or UNLIMITED, got {capacity}")
        self._capacity = capacity
        self._used = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def used(self) -> int:
        return self._used

    @property
    def unlimited(self) -> bool:
        return self._capacity == UNLIMITED

    def try_reserve(self, entries: int) -> bool:
        """Reserve ``entries`` slots; False (and no change) if they don't fit."""
        if entries < 0:
            raise ValueError(f"entries must be >= 0, got {entries}")
        if self._capacity != UNLIMITED and self._used + entries > self._capacity:
            return False
        self._used += entries
        return True

    def release(self, entries: int) -> None:
        if entries < 0:
            raise ValueError(f"entries must be >= 0, got {entries}")
        if entries > self._used:
            raise ValueError(
                f"releasing {entries} entries but only {self._used} reserved"
            )
        self._used -= entries
