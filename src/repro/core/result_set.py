"""Query result tables (Table 3) and per-query result maintenance.

Each entry stores the document, its text relevance ``TRel(q, d)`` and its
*accumulated similarity* (Eq. 24) — the sum of similarities to the
strictly newer documents of the result.  Only the oldest entry's value
is ever read (Eq. 25 below), so the table completes Eq. 24 *at
promotion* instead of growing every entry on every update.  New results
are always the newest document of the stream, so maintenance is
append-at-the-end / evict-at-the-front, and on arrival of ``d_n``:

* below ``k`` rows nothing is accumulated: a warm-up table is its rows,
  and the row that makes ``|R| = k`` settles the whole table at once
  (:meth:`QueryResultSet._settle`) — the oldest entry's value is
  completed with one dot product, as at promotion;
* from then on a non-oldest entry grows by ``Sim(d_i, d_n)`` only when
  ``d_n`` stays out of the aggregated-weight summary (R2, or no summary
  at all); the similarities to summarised (R1) arrivals are owed until
* the entry is promoted to oldest, when one Lemma 6 dot product of its
  own vector against the summary — which then holds exactly the newer
  R1 documents — pays them all at once;
* evicting the oldest entry changes nobody's accumulated similarity
  (nothing counts similarities to *older* documents).

The promoted value equals the pair-by-pair sum up to float association
(the contract every Lemma 6 sum already lives under; decisions are
``TIE_EPSILON``-guarded).  The oldest entry's closed form (Eq. 25,
corrected to include the decay factor so Lemma 1 holds exactly — see
DESIGN.md §2) is then

    dr_q(q.d_e) = α · TRel(q, d_e) · T(d_e)
                + (2-2α)/(k-1) · ((k-1) - Sim_acc(q.R, d_e))

The table also owns the query's aggregated term weight summary (Table 4)
over ``R1 \\ {d_e}`` and the R1/R2 split driven by the shared ``Φ_max``
budget — both exist only once the table is full, because only a full
result set has a filtering condition (Def. 3) for them to evaluate.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.agg_weights import AggregatedTermWeights, MemoryBudget
from repro.scoring.diversity import diversity_coefficient
from repro.scoring.recency import ExponentialDecay
from repro.stream.document import Document
from repro.text.vectors import TermVector, cached_cosines


class ResultEntry:
    """One row of the query result table."""

    __slots__ = ("document", "trel", "sim_acc", "in_r1", "aw_resident")

    def __init__(self, document: Document, trel: float) -> None:
        self.document = document
        self.trel = trel
        #: Eq. 24 — similarity mass against strictly newer result
        #: documents.  Complete for the oldest entry; for any other entry
        #: it covers the newer non-summarised documents only, until
        #: promotion adds the summarised rest.
        self.sim_acc = 0.0
        #: True if the entry was granted budget for the AW summary (R1).
        self.in_r1 = False
        #: True while the entry's weights are folded into the AW table
        #: (i.e. it is in R1 and is not the oldest entry).
        self.aw_resident = False


class QueryResultSet:
    """Result table of one DAS query; entries are kept oldest-first."""

    __slots__ = ("k", "_entries", "_aw", "_budget", "_track_aw", "_r2_count")

    def __init__(
        self,
        k: int,
        budget: Optional[MemoryBudget] = None,
        track_aggregated_weights: bool = True,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._entries: List[ResultEntry] = []
        self._track_aw = track_aggregated_weights
        self._budget = budget
        #: Table 4; None until the table fills (and always without AW).
        self._aw: Optional[AggregatedTermWeights] = None
        #: Entries of ``entries[1:]`` of a full table outside the AW
        #: summary (R2): the direct cosines a Lemma 6 evaluation owes.
        self._r2_count = 0

    # -- inspection --------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.k

    @property
    def entries(self) -> Sequence[ResultEntry]:
        return self._entries

    @property
    def oldest(self) -> Optional[ResultEntry]:
        """``q.d_e``'s entry, or None while empty."""
        return self._entries[0] if self._entries else None

    def documents(self) -> List[Document]:
        """Result documents, oldest first."""
        return [entry.document for entry in self._entries]

    def documents_newest_first(self) -> List[Document]:
        return [entry.document for entry in reversed(self._entries)]

    def __iter__(self) -> Iterator[ResultEntry]:
        return iter(self._entries)

    def __contains__(self, doc_id: int) -> bool:
        return any(entry.document.doc_id == doc_id for entry in self._entries)

    @property
    def aggregated_weights(self) -> Optional[AggregatedTermWeights]:
        return self._aw

    @property
    def aw_entry_count(self) -> int:
        return self._aw.entry_count if self._aw is not None else 0

    # -- thresholds ---------------------------------------------------------

    def static_dr_oldest(
        self, alpha: float, coeff: Optional[float] = None
    ) -> float:
        """Time-independent part of ``dr_q(q.d_e)`` — Eq. 13's per-query term.

        ``α·TRel(q, d_e) + (2-2α)/(k-1) · Σ d(d_e, d_i)`` where the
        dissimilarity sum equals ``(n - 1) - Sim_acc`` over the current
        ``n - 1`` co-resident documents.  ``coeff`` is the diversity
        coefficient, passable to avoid recomputing the loop invariant.
        """
        entry = self._entries[0]
        if coeff is None:
            coeff = diversity_coefficient(alpha, self.k)
        pairs = len(self._entries) - 1
        return alpha * entry.trel + coeff * (pairs - entry.sim_acc)

    def dr_oldest(
        self,
        now: float,
        decay: ExponentialDecay,
        alpha: float,
        coeff: Optional[float] = None,
    ) -> float:
        """``dr_q(q.d_e)`` (Eq. 7 / corrected Eq. 25) at time ``now``."""
        entry = self._entries[0]
        recency = decay.at(entry.document.created_at, now)
        if coeff is None:
            coeff = diversity_coefficient(alpha, self.k)
        pairs = len(self._entries) - 1
        return alpha * entry.trel * recency + coeff * (pairs - entry.sim_acc)

    # -- similarity sums ------------------------------------------------------

    def similarity_sum(
        self, vector: TermVector, sim_cache=None
    ) -> Tuple[float, int, int]:
        """``Σ_{d ∈ R \\ {d_e}} Sim(d, vector)``.

        Uses the aggregated term weight summary for R1 documents
        (Lemma 6) and direct cosines for R2 documents.
        Returns the sum plus counters ``(direct_similarities,
        aw_lookups)`` so the engine can meter the work performed.
        ``sim_cache`` (here and below) is the engine's publish-scoped
        cosine memo for ``vector``; None computes every cosine afresh.
        """
        aw_used = 0
        total = 0.0
        if self._aw is None:
            rows = self._entries[1:]
        else:
            total += self._aw.similarity_sum(vector)
            aw_used = 1
            # With every surviving entry folded into the AW summary there
            # are no direct (R2) cosines left.
            if not self._r2_count:
                return total, 0, aw_used
            rows = [e for e in self._entries[1:] if not e.aw_resident]
        tail_sum = 0.0
        for sim in cached_cosines(
            vector, [entry.document for entry in rows], sim_cache
        ):
            tail_sum += sim
        return total + tail_sum, len(rows), aw_used

    def similarity_floor(self, term: str, vector: TermVector) -> float:
        """``AW(term) · tf(term) / ‖vector‖`` — one addend of the Lemma 6
        dot product, hence an O(1) lower bound on :meth:`similarity_sum`
        (every addend is non-negative; R2 cosines only add to it).
        ``0.0`` without a summary or without an entry for ``term``.
        """
        aw = self._aw
        if aw is None:
            return 0.0
        count = vector.frequency(term)
        if not count:
            return 0.0
        # Spelled as AggregatedTermWeights.similarity_sum spells it, so
        # the floor never exceeds the sum in floating point either.
        return (aw.weight(term) * count) / vector.norm

    def similarities_to(
        self, vector: TermVector, sim_cache=None
    ) -> List[float]:
        """Per-entry similarities against all current entries, in order."""
        return cached_cosines(vector, self.documents(), sim_cache)

    def similarities_to_kept(
        self, vector: TermVector, sim_cache=None
    ) -> List[float]:
        """Similarities against the surviving entries (``entries[1:]``),
        oldest-first: what a replacing document is traded off against."""
        return cached_cosines(
            vector, [entry.document for entry in self._entries[1:]], sim_cache
        )

    # -- maintenance ----------------------------------------------------------

    def admit(self, document: Document, trel: float) -> Tuple[int, int]:
        """Warm-up insertion of a matching document while ``|R| < k``.

        The new document is the stream's newest.  A warm-up table is its
        rows: nothing is summarised, reserved or accumulated until the
        row that fills it.  Returns ``(cosines, aw_dots)`` — the work of
        :meth:`_settle` for the filling admit, zeros before.
        """
        entries = self._entries
        if len(entries) >= self.k:
            raise ValueError("result set is full; use replace()")
        entries.append(ResultEntry(document, trel))
        return self._settle() if len(entries) == self.k else (0, 0)

    def seed(
        self, documents: Sequence[Document], trels: Sequence[float]
    ) -> Tuple[int, int]:
        """Fill the empty table with a subscription's seeds, oldest first:
        :meth:`admit` for each, in one call.  Returns ``(cosines,
        aw_dots)`` — zeros unless the seeds fill the table."""
        entries = self._entries
        if entries:
            raise ValueError("seed() needs an empty result set")
        if len(documents) > self.k:
            raise ValueError(f"{len(documents)} seeds exceed k={self.k}")
        entries.extend(map(ResultEntry, documents, trels))
        return self._settle() if len(entries) == self.k else (0, 0)

    def _settle(self) -> Tuple[int, int]:
        """Build the filtering state of a table that just reached ``k``
        rows; returns ``(cosines, aw_dots)``.

        Each non-oldest row settles its R1/R2 side in row order — the
        ``Φ_max`` reservations and the AW weights are those of folding
        the rows in one by one as they arrived.  A row that stays out of
        the summary pays its cosines to every older row; the oldest
        row's Eq. 24 value is then completed the way :meth:`replace`
        completes a promoted row, by one Lemma 6 dot product against the
        summary, which holds exactly its newer R1 rows.
        """
        entries = self._entries
        if self._track_aw:
            self._aw = AggregatedTermWeights()
        cosines = 0
        for index, entry in enumerate(entries[1:], 1):
            if not self._join_summary(entry):
                older = entries[:index]
                sims = cached_cosines(
                    entry.document.vector, [e.document for e in older], None
                )
                for existing, sim in zip(older, sims):
                    existing.sim_acc += sim
                cosines += index
        if self._r2_count < len(entries) - 1:
            head = entries[0]
            head.sim_acc += self._aw.similarity_sum(head.document.vector)
            return cosines, 1
        return cosines, 0

    def replace(
        self, document: Document, trel: float, sim_cache=None
    ) -> Tuple[Document, int, int]:
        """Evict ``d_e``, admit ``document``, promote the next entry.

        Returns ``(evicted document, cosines, aw_dots)``: cosines are
        computed against the kept entries only when ``document`` stays
        out of the AW summary; ``aw_dots`` meters the Lemma 6 dot product
        that completes the promoted entry's accumulated similarity.
        """
        entries = self._entries
        if len(entries) < self.k:
            raise ValueError("result set is warming up; use admit()")
        # The evicted entry is never AW-resident (the oldest is excluded
        # from the summary), so only its budget-free removal happens here.
        assert not entries[0].aw_resident
        head = entries[1] if len(entries) > 1 else None
        if head is not None:
            self._on_new_oldest(head)
        entry = ResultEntry(document, trel)
        cosines = 0
        if head is not None and not self._join_summary(entry):
            sims = self.similarities_to_kept(document.vector, sim_cache)
            for index, sim in enumerate(sims, 1):
                entries[index].sim_acc += sim
            cosines = len(sims)
        evicted_entry = entries.pop(0)
        entries.append(entry)
        aw_dots = 0
        if head is not None and self._aw is not None:
            # The summary now holds exactly the R1 documents newer than
            # ``head`` (itself removed, ``document`` added).  Never through
            # the publish's cosine memo — that is keyed to ``document``.
            head.sim_acc += self._aw.similarity_sum(head.document.vector)
            aw_dots = 1
        return evicted_entry.document, cosines, aw_dots

    def _on_new_oldest(self, head: ResultEntry) -> None:
        """Exclude the entry about to become oldest from the AW summary."""
        if head.aw_resident:
            assert self._aw is not None
            self._aw.remove_document(head.document.vector)
            head.aw_resident = False
            if self._budget is not None:
                self._budget.release(len(head.document.vector))
        else:
            self._r2_count -= 1

    def _join_summary(self, entry: ResultEntry) -> bool:
        """Settle a non-oldest row's R1/R2 side (the oldest row stays out
        of the summary by definition); True when it joined the summary."""
        vector = entry.document.vector
        if self._aw is not None and (
            self._budget is None or self._budget.try_reserve(len(vector))
        ):
            entry.in_r1 = True
            entry.aw_resident = True
            self._aw.add_document(vector)
            return True
        self._r2_count += 1
        return False

    def release_budget(self) -> None:
        """Return all reserved AW budget (used on unsubscribe)."""
        if self._budget is None:
            return
        for entry in self._entries:
            if entry.aw_resident:
                self._budget.release(len(entry.document.vector))
                entry.aw_resident = False
                self._r2_count += 1
