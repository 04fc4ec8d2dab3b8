"""Query result tables (Table 3) and per-query result maintenance.

A table stores its rows as columns, oldest first: the documents in a
list, their text relevances ``TRel(q, d)`` and *accumulated
similarities* (Eq. 24: the sum of similarities to the strictly newer
documents of the result) in two ``array('d')``, and one flag byte per
row (:data:`IN_R1`, :data:`AW_RESIDENT`).  No row is an object of its
own, so a table is four collector-tracked objects (itself, its document
list and the two arrays; the bytearray is untracked) whatever ``k`` is;
:meth:`QueryResultSet.rows` is the read-only tuple view for cold
readers.  Only the oldest row's Eq. 24 value is ever read (Eq. 25
below), so the table completes it *at promotion* instead of growing
every row on every update.  New results
are always the newest document of the stream, so maintenance is
append-at-the-end / evict-at-the-front, and on arrival of ``d_n``:

* below ``k`` rows nothing is accumulated: a warm-up table is its rows,
  and the row that makes ``|R| = k`` settles the whole table at once
  (:meth:`QueryResultSet._settle`) — the oldest row's value is
  completed with one dot product, as at promotion;
* from then on a non-oldest row grows by ``Sim(d_i, d_n)`` only when
  ``d_n`` stays out of the aggregated-weight summary (R2, or no summary
  at all); the similarities to summarised (R1) arrivals are owed until
* the row is promoted to oldest, when one Lemma 6 dot product of its
  own vector against the summary — which then holds exactly the newer
  R1 documents — pays them all at once;
* evicting the oldest row changes nobody's accumulated similarity
  (nothing counts similarities to *older* documents).

The promoted value equals the pair-by-pair sum up to float association
(the contract every Lemma 6 sum already lives under; decisions are
``TIE_EPSILON``-guarded).  The oldest row's closed form (Eq. 25,
corrected to include the decay factor so Lemma 1 holds exactly — see
DESIGN.md §2) is then

    dr_q(q.d_e) = α · TRel(q, d_e) · T(d_e)
                + (2-2α)/(k-1) · ((k-1) - Sim_acc(q.R, d_e))

A full table keeps that value's two halves, ``α·TRel(q, d_e)`` and
``(2-2α)/(k-1) · ((k-1) - Sim_acc)``, and ``d_e``'s creation time as
plain attributes, set by the writers that change the oldest row
(:meth:`QueryResultSet._settle`, :meth:`QueryResultSet.replace`, and the
checkpoint restore).  The engine's run loop decides a full query from
them with one decay lookup; :meth:`QueryResultSet.dr_oldest` and
:meth:`QueryResultSet.static_dr_oldest` stay the from-scratch reference
forms, and the kept forms equal them bit for bit (``alpha * trel *
recency`` is ``(alpha * trel) * recency`` in Python).  An ``array('d')``
slot holds the same IEEE double a Python float does, so reading a
column back gives the float that was written.

The table also owns the query's aggregated term weight summary (Table 4)
over ``R1 \\ {d_e}`` and the R1/R2 split driven by the shared ``Φ_max``
budget — both exist only once the table is full, because only a full
result set has a filtering condition (Def. 3) for them to evaluate.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence, Tuple

from repro.config import EngineConfig
from repro.core.agg_weights import AggregatedTermWeights, MemoryBudget
from repro.scoring.diversity import diversity_coefficient
from repro.scoring.recency import ExponentialDecay
from repro.stream.document import Document
from repro.text.vectors import TermVector, cached_cosines

#: Row flag: the row was granted ``Φ_max`` budget for the AW summary (R1).
IN_R1 = 1
#: Row flag: the row's weights are folded into the AW summary (it is in
#: R1 and is not the oldest row).
AW_RESIDENT = 2

#: One row of :meth:`QueryResultSet.rows`: ``(document, trel, sim_acc,
#: in_r1, aw_resident)``.
Row = Tuple[Document, float, float, bool, bool]


class QueryResultSet:
    """Result table of one DAS query; rows are kept oldest-first, as
    columns."""

    __slots__ = (
        "k",
        "_docs",
        "_trels",
        "_sim",
        "_flags",
        "_aw",
        "_budget",
        "_track_aw",
        "_r2_count",
        "_alpha",
        "_coeff",
        "kept_rel",
        "kept_div",
        "kept_created",
    )

    def __init__(
        self,
        k: int,
        budget: Optional[MemoryBudget] = None,
        track_aggregated_weights: bool = True,
        alpha: float = EngineConfig.alpha,
        coeff: Optional[float] = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        #: The ``α`` and ``(2-2α)/(k-1)`` the kept thresholds are built
        #: with (the engine passes its own, so every table shares them).
        self._alpha = alpha
        self._coeff = diversity_coefficient(alpha, k) if coeff is None else coeff
        #: ``α·TRel(q, d_e)``, ``(2-2α)/(k-1) · ((k-1) - Sim_acc(d_e))``
        #: and ``d_e.created_at`` of a full table: ``dr_q(q.d_e)`` is
        #: ``kept_rel · T(d_e) + kept_div``.  All None below ``k``.
        self.kept_rel: Optional[float] = None
        self.kept_div: Optional[float] = None
        self.kept_created: Optional[float] = None
        #: The row columns, oldest first.  ``_sim`` is Eq. 24's
        #: ``Sim_acc``: complete for the oldest row; any other row holds
        #: its similarities to newer non-summarised rows only, until
        #: promotion adds the summarised rest.
        self._docs: List[Document] = []
        self._trels = array("d")
        self._sim = array("d")
        self._flags = bytearray()
        self._track_aw = track_aggregated_weights
        self._budget = budget
        #: Table 4; None until the table fills (and always without AW).
        self._aw: Optional[AggregatedTermWeights] = None
        #: Rows of ``rows()[1:]`` of a full table outside the AW summary
        #: (R2): the direct cosines a Lemma 6 evaluation owes.
        self._r2_count = 0

    # -- inspection --------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._docs)

    @property
    def is_full(self) -> bool:
        return len(self._docs) >= self.k

    def rows(self) -> List[Row]:
        """``(document, trel, sim_acc, in_r1, aw_resident)`` per row,
        oldest first — a copy, for checkpoints, audits and tests; the
        publish path reads the columns."""
        return [
            (document, trel, sim, bool(flag & IN_R1), bool(flag & AW_RESIDENT))
            for document, trel, sim, flag in zip(
                self._docs, self._trels, self._sim, self._flags
            )
        ]

    def documents(self) -> List[Document]:
        """Result documents, oldest first."""
        return list(self._docs)

    def documents_newest_first(self) -> List[Document]:
        return self._docs[::-1]

    def __contains__(self, doc_id: int) -> bool:
        return any(document.doc_id == doc_id for document in self._docs)

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
        if coeff is None:
            coeff = diversity_coefficient(alpha, self.k)
        pairs = len(self._docs) - 1
        return alpha * self._trels[0] + coeff * (pairs - self._sim[0])

    def dr_oldest(
        self,
        now: float,
        decay: ExponentialDecay,
        alpha: float,
        coeff: Optional[float] = None,
    ) -> float:
        """``dr_q(q.d_e)`` (Eq. 7 / corrected Eq. 25) at time ``now``."""
        recency = decay.at(self._docs[0].created_at, now)
        if coeff is None:
            coeff = diversity_coefficient(alpha, self.k)
        pairs = len(self._docs) - 1
        return alpha * self._trels[0] * recency + coeff * (pairs - self._sim[0])

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
        docs = self._docs
        if self._aw is None:
            rows = docs[1:]
        else:
            total += self._aw.similarity_sum(vector)
            aw_used = 1
            # With every surviving row folded into the AW summary there
            # are no direct (R2) cosines left.
            if not self._r2_count:
                return total, 0, aw_used
            flags = self._flags
            rows = [
                docs[index]
                for index in range(1, len(docs))
                if not flags[index] & AW_RESIDENT
            ]
        tail_sum = 0.0
        for sim in cached_cosines(vector, rows, sim_cache):
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
        """Per-row similarities against all current rows, in order."""
        return cached_cosines(vector, self._docs, sim_cache)

    def similarities_to_kept(
        self, vector: TermVector, sim_cache=None
    ) -> List[float]:
        """Similarities against the surviving rows (all but the oldest),
        oldest-first: what a replacing document is traded off against."""
        return cached_cosines(vector, self._docs[1:], sim_cache)

    # -- maintenance ----------------------------------------------------------

    def admit(self, document: Document, trel: float) -> Tuple[int, int]:
        """Warm-up insertion of a matching document while ``|R| < k``.

        The new document is the stream's newest.  A warm-up table is its
        rows: nothing is summarised, reserved or accumulated until the
        row that fills it.  Returns ``(cosines, aw_dots)`` — the work of
        :meth:`_settle` for the filling admit, zeros before.
        """
        docs = self._docs
        if len(docs) >= self.k:
            raise ValueError("result set is full; use replace()")
        docs.append(document)
        self._trels.append(trel)
        self._sim.append(0.0)
        self._flags.append(0)
        return self._settle() if len(docs) == self.k else (0, 0)

    def seed(
        self, documents: Sequence[Document], trels: Sequence[float]
    ) -> Tuple[int, int]:
        """Fill the empty table with a subscription's seeds, oldest first:
        :meth:`admit` for each, in one call.  Returns ``(cosines,
        aw_dots)`` — zeros unless the seeds fill the table."""
        if self._docs:
            raise ValueError("seed() needs an empty result set")
        if len(documents) > self.k:
            raise ValueError(f"{len(documents)} seeds exceed k={self.k}")
        self._extend_rows(documents, trels)
        return self._settle() if len(self._docs) == self.k else (0, 0)

    def _extend_rows(
        self, documents: Sequence[Document], trels: Sequence[float]
    ) -> None:
        """Append warm-up rows: no similarity accumulated, no flags."""
        self._docs.extend(documents)
        self._trels.extend(trels)
        self._sim.extend([0.0] * len(documents))
        self._flags.extend(bytes(len(documents)))

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
        docs, sim, flags = self._docs, self._sim, self._flags
        if self._track_aw:
            self._aw = AggregatedTermWeights()
        cosines = 0
        for index in range(1, len(docs)):
            vector = docs[index].vector
            if self._join_summary(vector):
                flags[index] = IN_R1 | AW_RESIDENT
                continue
            sims = cached_cosines(vector, docs[:index], None)
            for older, value in enumerate(sims):
                sim[older] += value
            cosines += index
        if self._r2_count < len(docs) - 1:
            sim[0] += self._aw.similarity_sum(docs[0].vector)
            self._keep_thresholds()
            return cosines, 1
        self._keep_thresholds()
        return cosines, 0

    def _keep_thresholds(self) -> None:
        """Keep the oldest row's halves of Eq. 25 — the same float
        expressions as :meth:`dr_oldest`; called whenever a full table's
        oldest row or its ``Sim_acc`` changes."""
        docs = self._docs
        self.kept_rel = self._alpha * self._trels[0]
        self.kept_div = self._coeff * ((len(docs) - 1) - self._sim[0])
        self.kept_created = docs[0].created_at

    def replace(
        self, document: Document, trel: float, sim_cache=None
    ) -> Tuple[Document, int, int]:
        """Evict ``d_e``, admit ``document``, promote the next row.

        Returns ``(evicted document, cosines, aw_dots)``: cosines are
        computed against the kept rows only when ``document`` stays out
        of the AW summary; ``aw_dots`` meters the Lemma 6 dot product
        that completes the promoted row's accumulated similarity.

        The columns shift in place (a pop at the front, an append at the
        back), so a replace leaves no new object behind.
        """
        docs = self._docs
        count = len(docs)
        if count < self.k:
            raise ValueError("result set is warming up; use admit()")
        flags, sim, trels = self._flags, self._sim, self._trels
        # The evicted row is never AW-resident (the oldest is excluded
        # from the summary), so only its budget-free removal happens here.
        assert not flags[0] & AW_RESIDENT
        aw = self._aw
        cosines = 0
        flag = 0
        if count > 1:
            # Row 1 is about to become the oldest: it leaves the summary.
            if flags[1] & AW_RESIDENT:
                head_vector = docs[1].vector
                aw.remove_document(head_vector)
                flags[1] = IN_R1
                if self._budget is not None:
                    self._budget.release(len(head_vector))
            else:
                self._r2_count -= 1
            if self._join_summary(document.vector):
                flag = IN_R1 | AW_RESIDENT
            else:
                sims = self.similarities_to_kept(document.vector, sim_cache)
                for index, value in enumerate(sims, 1):
                    sim[index] += value
                cosines = len(sims)
        evicted = docs.pop(0)
        del trels[0]
        del sim[0]
        del flags[0]
        docs.append(document)
        trels.append(trel)
        sim.append(0.0)
        flags.append(flag)
        aw_dots = 0
        if count > 1 and aw is not None:
            # The summary now holds exactly the R1 documents newer than
            # the promoted row (itself removed, ``document`` added).  Never
            # through the publish's cosine memo — that is keyed to
            # ``document``.
            sim[0] += aw.similarity_sum(docs[0].vector)
            aw_dots = 1
        self._keep_thresholds()
        return evicted, cosines, aw_dots

    def _join_summary(self, vector: TermVector) -> bool:
        """Settle a non-oldest row's R1/R2 side (the oldest row stays out
        of the summary by definition); True when it joined the summary —
        the caller then sets the row's ``IN_R1 | AW_RESIDENT`` flags."""
        if self._aw is not None and (
            self._budget is None or self._budget.try_reserve(len(vector))
        ):
            self._aw.add_document(vector)
            return True
        self._r2_count += 1
        return False

    def release_budget(self) -> None:
        """Return all reserved AW budget (used on unsubscribe)."""
        if self._budget is None:
            return
        docs, flags = self._docs, self._flags
        for index, flag in enumerate(flags):
            if flag & AW_RESIDENT:
                self._budget.release(len(docs[index].vector))
                flags[index] = flag & IN_R1
                self._r2_count += 1
