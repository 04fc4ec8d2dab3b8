"""Postings blocks of the query inverted file (Figure 2, Section 4.3).

Each block holds at most ``p_max`` query ids (ascending) and is augmented
with the five components listed in Section 4.3:

1. its id range, ``query_ids[0]`` to ``query_ids[-1]``: the engine
   checks a document's blocks in the order of their first ids;
2. ``DTRel_min(b)`` (Eq. 13) — minimum over members of the
   time-independent part of ``dr_q(q.d_e)``;
3. ``TRel(q_m, q_m.d_e)`` (Eq. 14) — maximum oldest-document relevance;
4. ``q_e.d_e`` — the earliest oldest-document timestamp among members;
5. the MCS-based result summary (Section 5).

Metadata is refreshed *lazily*: result updates mark the block dirty (in
every postings list the query appears in) and the values are recomputed
from per-query O(1) summaries the next time the block participates in a
group-filtering decision.  This keeps the bound safe — a stale
``DTRel_min`` could over- or under-estimate the true threshold, and an
over-estimate would drop true results.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.core.mcs import (
    BlockUniverse,
    CoverSet,
    build_universe,
    greedy_mcs_gen,
)
from repro.core.result_set import QueryResultSet

_NEG_INF = float("-inf")


class PostingsBlock:
    """One block of a postings list, with group-filtering summaries."""

    __slots__ = (
        "query_ids",
        "meta_dirty",
        "unfilled_ids",
        "dtrel_min",
        "trel_max_de",
        "earliest_de",
        "mcs_sets",
        "mcs_initial_count",
    )

    def __init__(self) -> None:
        self.query_ids: List[int] = []
        self.meta_dirty: bool = True
        #: Members whose result sets are still warming up.  They admit
        #: every matching document, so a group skip must still evaluate
        #: them individually; the block summaries cover the filled rest.
        #: The shared empty tuple until a refresh finds one: nothing
        #: appends to it, and most blocks never hold a warm-up member.
        self.unfilled_ids: Sequence[int] = ()
        self.dtrel_min: float = _NEG_INF
        self.trel_max_de: float = 0.0
        self.earliest_de: float = 0.0
        #: None means "not built yet"; an empty list means "built but no
        #: covering set exists" (the bound then degrades to BIRT's 0).
        self.mcs_sets: Optional[List[CoverSet]] = None
        self.mcs_initial_count: int = 0

    @property
    def has_unfilled(self) -> bool:
        """Whether the last refresh found a member still warming up."""
        return bool(self.unfilled_ids)

    # -- postings ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.query_ids)

    def append(self, query_id: int) -> None:
        """Add a posting; ids arrive in ascending order by construction."""
        if self.query_ids and query_id <= self.query_ids[-1]:
            raise ValueError(
                f"posting {query_id} out of order (last {self.query_ids[-1]})"
            )
        self.query_ids.append(query_id)
        self.meta_dirty = True
        # A new member invalidates coverage of every existing MCS.
        self.mcs_sets = None
        self.mcs_initial_count = 0

    def remove(self, query_id: int) -> bool:
        """Remove a posting (unsubscription); returns True if present."""
        try:
            self.query_ids.remove(query_id)
        except ValueError:
            return False
        self.meta_dirty = True
        # Shrinking membership keeps existing covers valid (they still
        # cover every remaining query), so the MCS summary survives.
        return True

    # -- metadata -----------------------------------------------------------

    def refresh_metadata(self, result_sets: Dict[int, QueryResultSet]) -> None:
        """Recompute components (2)-(4) from per-query O(1) summaries.

        Members still warming up (``|R| < k``) are collected into
        :attr:`unfilled_ids`; the threshold summaries cover the *filled*
        members only, so a group skip remains valid for them while the
        unfilled members are evaluated individually by the engine.  A
        member's Eq. 13 term is its table's kept ``kept_rel + kept_div``,
        which is :meth:`QueryResultSet.static_dr_oldest` bit for bit.
        """
        dtrel_min = float("inf")
        trel_max = 0.0
        earliest = float("inf")
        unfilled: List[int] = []
        for query_id in self.query_ids:
            result_set = result_sets[query_id]
            if not result_set.is_full:
                unfilled.append(query_id)
                continue
            static = result_set.kept_rel + result_set.kept_div
            if static < dtrel_min:
                dtrel_min = static
            trel = result_set._trels[0]
            if trel > trel_max:
                trel_max = trel
            created = result_set.kept_created
            if created < earliest:
                earliest = created
        self.unfilled_ids = unfilled or ()
        if len(unfilled) == len(self.query_ids):
            # Nothing filled: no meaningful summary exists.
            self.dtrel_min = _NEG_INF
            self.trel_max_de = 0.0
            self.earliest_de = 0.0
        else:
            self.dtrel_min = dtrel_min
            self.trel_max_de = trel_max
            self.earliest_de = earliest
        self.meta_dirty = False

    def refresh_from_columns(self, columns) -> bool:
        """Refresh from a :class:`~repro.core.columnar.QuerySummaryColumns`.

        Not called by the engine (a dirty block is refreshed by
        :meth:`refresh_metadata`); kept, with :mod:`repro.core.columnar`,
        only because ``benchmarks/e2e/tracing.py`` patches it by name.
        Returns True when the columnar store covered every member (all
        filled), refreshing the summaries bit-identically to
        :meth:`refresh_metadata`; False when any member is unknown or
        unfilled.
        """
        slots = columns.slots_for(self.query_ids)
        if slots is None:
            return False
        summary = columns.summarize(slots)
        if summary is None:
            return False
        self.dtrel_min, self.trel_max_de, self.earliest_de = summary
        self.unfilled_ids = ()
        self.meta_dirty = False
        return True

    # -- MCS summary -----------------------------------------------------------

    def needs_mcs_rebuild(self, delta_s: float) -> bool:
        """Section 7.1 rebuild policy: ratio of surviving MCSs below δ_s."""
        if self.mcs_sets is None:
            return True
        if self.mcs_initial_count == 0:
            return False
        return len(self.mcs_sets) / self.mcs_initial_count < delta_s

    def rebuild_mcs(
        self,
        term: str,
        result_sets: Dict[int, QueryResultSet],
    ) -> BlockUniverse:
        """(Re)generate the MCS summary from the members' current results.

        Only *filled* members participate: the group bound is applied to
        them alone (warm-up members are always evaluated individually),
        so covers need not span queries that are still filling up.
        """
        filled = [
            query_id
            for query_id in self.query_ids
            if result_sets[query_id].is_full
        ]
        universe = build_universe(term, filled, result_sets)
        self.mcs_sets = greedy_mcs_gen(filled, universe)
        self.mcs_initial_count = len(self.mcs_sets)
        return universe

    def invalidate_mcs_with(self, doc_ids: Set[int]) -> int:
        """Drop MCSs containing any of ``doc_ids``; returns the drop count.

        Called when a member query's result changed: both the evicted
        document and the member's new oldest document stop counting
        toward coverage, so covers relying on them must go (Section 7.1).
        Removing covers keeps Eq. 19 correct — it only loosens the bound.
        """
        if not self.mcs_sets or not doc_ids:
            return 0
        before = len(self.mcs_sets)
        surviving = [
            cover
            for cover in self.mcs_sets
            if doc_ids.isdisjoint(cover.doc_ids)
        ]
        self.mcs_sets = surviving
        return before - len(surviving)
