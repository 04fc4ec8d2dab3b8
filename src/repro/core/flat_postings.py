"""Kept only for the ``benchmarks/e2e/tracing.py`` import until a ``benchmark`` PR drops its rows; imported by nothing under ``src/repro``.

Flat contiguous postings arrays + batch-wide block skipping (ISSUE 9) —
detached from the engine in ISSUE 21 (DESIGN.md §15).

The PR 6 columnar mirror (:mod:`repro.core.columnar`) vectorized block
*refreshes*, but the DAAT loop itself still walks linked
:class:`~repro.core.blocks.PostingsBlock` objects one at a time and
evaluates the Lemma 7 group bound per block in pure Python.  This module
keeps a second mirror — of the *postings structure* — so the skip
decision runs once per document over every candidate block in a single
NumPy pass:

- per term, parallel arrays of query ids, their
  :class:`~repro.core.columnar.QuerySummaryColumns` slots, and a
  liveness mask.  Inserts append at the tail (the inverted file is
  append-only in query-id order, so the arrays stay block-major
  contiguous); unsubscribes tombstone in place; a tombstone-ratio
  threshold triggers compaction (a rebuild from the linked structure,
  which physically removed the postings).
- per block, cached summary scalars (``dtrel_min``, ``trel_max_de``,
  ``earliest_de``) mirroring the block objects, resynced lazily when any
  block of the term was dirtied.  Dirty all-filled blocks are refreshed
  with one masked ``reduceat`` over the summary columns — the same
  gather the per-block :meth:`PostingsBlock.refresh_from_columns` does,
  amortized across every dirty block of the term.

Bit-identity contract (extends the PR 6 contract):

- Refresh values are min/max reductions over the *identical* float64s
  the scalar refresh reads, so summaries come out bit-identical.
- The batch verdict uses the universal upper bound
  ``U0 = α·max(PS of the document's indexed terms) + coeff·(k-1)`` —
  Eq. 18 with every term still active and Eq. 19 at its floor 0.  Every
  operation from the scalar bound to ``U0`` is monotone in IEEE-754
  arithmetic, so ``U0 <= FT̃_b`` *implies* the scalar Lemma 7 check
  skips too: a positive verdict is always a decision the linked-block
  path would have made, and a negative verdict simply falls back to it.
- The per-block threshold ``FT̃_b`` (Eq. 12) is evaluated with the same
  association order as :func:`repro.core.filtering.threshold_from_summaries`
  and decay powers come from the engine's :class:`CachedDecay` (CPython
  ``pow``, memoized per unique age), never ``np.power`` — elementwise
  mul/sub are exact given identical inputs, a vectorized ``pow`` is not
  guaranteed to be.

The mirror is an acceleration structure only and requires the columnar
summary mirror.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

try:  # pragma: no cover - exercised via engines, not direct import
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

_NEG_INF = float("-inf")
_INITIAL_CAPACITY = 8
#: Compaction policy: rebuild a term once tombstones pass this share of
#: its array (and at least this many absolute, so tiny terms don't churn).
_COMPACT_RATIO = 0.25
_COMPACT_MIN_DEAD = 8


class FlatTermPostings:
    """Contiguous mirror of one term's postings list."""

    __slots__ = (
        "qids",
        "slots",
        "alive",
        "size",
        "dead",
        "starts",
        "s_dtrel",
        "s_trel",
        "s_earliest",
        "summaries_stale",
        "structure_stale",
    )

    def __init__(self) -> None:
        capacity = _INITIAL_CAPACITY
        #: Parallel per-posting arrays; ``size`` entries used, tombstones
        #: included.  ``qids`` ascends (inserts arrive in id order), so
        #: the arrays are block-major contiguous by construction.
        self.qids = np.zeros(capacity, dtype=np.int64)
        self.slots = np.zeros(capacity, dtype=np.intp)
        self.alive = np.zeros(capacity, dtype=np.bool_)
        self.size = 0
        self.dead = 0
        #: Per-block start offsets into the posting arrays.
        self.starts: List[int] = []
        #: Per-block summary cache mirroring the block objects' scalars;
        #: valid only while ``summaries_stale`` is False.
        self.s_dtrel = None
        self.s_trel = None
        self.s_earliest = None
        self.summaries_stale = True
        #: A block deletion shifted ordinals — rebuild before next use.
        self.structure_stale = False

    @property
    def block_count(self) -> int:
        return len(self.starts)

    def _grow(self) -> None:
        capacity = max(len(self.qids) * 2, _INITIAL_CAPACITY)
        for name, dtype in (
            ("qids", np.int64),
            ("slots", np.intp),
            ("alive", np.bool_),
        ):
            old = getattr(self, name)
            grown = np.zeros(capacity, dtype=dtype)
            grown[: self.size] = old[: self.size]
            setattr(self, name, grown)

    def append(self, query_id: int, slot: int, new_block: bool) -> None:
        if self.size >= len(self.qids):
            self._grow()
        if new_block:
            self.starts.append(self.size)
        index = self.size
        self.qids[index] = query_id
        self.slots[index] = slot
        self.alive[index] = True
        self.size += 1
        self.summaries_stale = True

    def tombstone(self, query_id: int) -> bool:
        """Mark ``query_id`` dead in place; returns True if found live."""
        index = int(
            np.searchsorted(self.qids[: self.size], query_id)
        )
        if (
            index >= self.size
            or int(self.qids[index]) != query_id
            or not self.alive[index]
        ):
            return False
        self.alive[index] = False
        # Keep the slot index in-bounds for the masked gathers even
        # after the columnar store recycles it.
        self.slots[index] = 0
        self.dead += 1
        self.summaries_stale = True
        return True

    def needs_compaction(self) -> bool:
        return (
            self.dead >= _COMPACT_MIN_DEAD
            and self.dead * 4 >= self.size
        )

    def live_blocks(self) -> List[List[int]]:
        """Live query ids grouped by block — the audit view the property
        tests compare byte-for-byte against the linked structure."""
        qids = self.qids[: self.size]
        alive = self.alive[: self.size]
        bounds = self.starts + [self.size]
        return [
            [int(q) for q, a in zip(qids[lo:hi], alive[lo:hi]) if a]
            for lo, hi in zip(bounds, bounds[1:])
        ]


class FlatPostingsIndex:
    """Flat mirror of a :class:`QueryInvertedFile` (ISSUE 9 tentpole).

    Attached to the inverted file via :meth:`attach`, so every insert —
    including the ones a checkpoint restore replays directly against the
    index — and every remove flows through the mirror.  The linked
    structure stays the source of truth: structural invalidations
    (a block deletion shifting ordinals, the compaction threshold) are
    repaired by rebuilding the term from its list of blocks.
    """

    def __init__(self, columns, counters=None) -> None:
        if np is None:  # pragma: no cover - guarded by engine gating
            raise RuntimeError("FlatPostingsIndex requires numpy")
        self._columns = columns
        self._index = None
        self.counters = counters
        self._terms: Dict[str, FlatTermPostings] = {}
        self.compactions = 0

    def attach(self, index) -> None:
        """Register as ``index``'s mirror (insert/remove hooks)."""
        self._index = index
        index.mirror = self

    # -- maintenance hooks (called by QueryInvertedFile) --------------------

    def on_insert(self, term: str, query_id: int, new_block: bool) -> None:
        state = self._terms.get(term)
        if state is None:
            state = self._terms[term] = FlatTermPostings()
        if state.structure_stale:
            return
        state.append(query_id, self._columns.assign(query_id), new_block)

    def on_remove(
        self, term: str, query_id: int, block_deleted: bool
    ) -> None:
        state = self._terms.get(term)
        if state is None:
            return
        if block_deleted:
            # Ordinals shifted under us; re-derive from the source of
            # truth before the term is used again.
            state.structure_stale = True
            return
        if state.structure_stale:
            return
        state.tombstone(query_id)
        if state.needs_compaction():
            self._rebuild(state, self._index.list_for(term))
            self.compactions += 1
            if self.counters is not None:
                self.counters.postings_compactions += 1

    def on_term_dropped(self, term: str) -> None:
        self._terms.pop(term, None)

    def note_dirty(self, term: str) -> None:
        """A result update dirtied one of the term's blocks.

        The engine calls this alongside ``block.meta_dirty = True`` so
        the per-block summary cache is resynced before its next use —
        a stale cached threshold would make the batch verdict unsound.
        """
        state = self._terms.get(term)
        if state is not None:
            state.summaries_stale = True

    # -- structure ---------------------------------------------------------

    def term_state(self, term: str, postings) -> Optional[FlatTermPostings]:
        """The term's mirror, rebuilt first if structurally stale."""
        state = self._terms.get(term)
        if state is None:
            state = self._terms[term] = FlatTermPostings()
            state.structure_stale = True
        if state.structure_stale:
            self._rebuild(state, postings)
        return state

    def _rebuild(self, state: FlatTermPostings, postings) -> None:
        """Re-derive a term's arrays from its linked postings list.

        Doubles as compaction: the linked structure physically removed
        unsubscribed postings, so a rebuild carries no tombstones.
        """
        qids: List[int] = []
        starts: List[int] = []
        if postings is not None:
            for block in postings:
                starts.append(len(qids))
                qids.extend(block.query_ids)
        count = len(qids)
        capacity = _INITIAL_CAPACITY
        while capacity < count:
            capacity *= 2
        state.qids = np.zeros(capacity, dtype=np.int64)
        state.slots = np.zeros(capacity, dtype=np.intp)
        state.alive = np.zeros(capacity, dtype=np.bool_)
        if count:
            state.qids[:count] = qids
            slot_of = self._columns.slot_of
            state.slots[:count] = [slot_of[qid] for qid in qids]
            state.alive[:count] = True
        state.size = count
        state.dead = 0
        state.starts = starts
        state.structure_stale = False
        state.summaries_stale = True

    # -- batch skip evaluation (engine hot path) ----------------------------

    def sync_term(
        self,
        state: FlatTermPostings,
        blocks,
        result_sets,
        alpha: float,
        coeff: float,
        counters,
    ) -> None:
        """Refresh the term's dirty blocks and resync the summary cache.

        Dirty blocks whose live members are all filled refresh through
        one masked ``reduceat`` over the summary columns (bit-identical
        to the scalar walk — min/max over the same float64s); blocks
        with warm-up members fall back to the scalar refresh, which
        collects ``unfilled_ids``.  The per-block summary cache is then
        re-gathered from the block objects so it also reflects refreshes
        the scalar path performed since the last sync.
        """
        dirty = [
            index for index, block in enumerate(blocks) if block.meta_dirty
        ]
        if dirty and len(dirty) * 4 < len(blocks):
            # Sparse dirt: the whole-term gather below touches every
            # posting of the term, so for a handful of dirty blocks the
            # per-block columnar refresh (same bit-identity contract)
            # is cheaper.
            columns = self._columns
            for index in dirty:
                block = blocks[index]
                if block.refresh_from_columns(columns):
                    if counters is not None:
                        counters.columnar_refreshes += 1
                else:
                    block.refresh_metadata(result_sets)
                    if counters is not None:
                        counters.scalar_refreshes += 1
        elif dirty:
            size = state.size
            starts = np.asarray(state.starts, dtype=np.intp)
            columns = self._columns
            slots = state.slots[:size]
            alive = state.alive[:size]
            filled = columns.filled[slots] & alive
            unfilled_any = np.logical_or.reduceat(
                alive & ~columns.filled[slots], starts
            )
            static = np.where(
                filled, columns.static_dr[slots], np.inf
            )
            trel = np.where(filled, columns.trel_de[slots], -np.inf)
            created = np.where(
                filled, columns.created_de[slots], np.inf
            )
            dtrel_min = np.minimum.reduceat(static, starts)
            trel_max = np.maximum.reduceat(trel, starts)
            earliest = np.minimum.reduceat(created, starts)
            for index in dirty:
                block = blocks[index]
                if unfilled_any[index]:
                    block.refresh_metadata(result_sets)
                    if counters is not None:
                        counters.scalar_refreshes += 1
                else:
                    block.dtrel_min = float(dtrel_min[index])
                    # The scalar refresh seeds trel_max at 0.0; clamp to
                    # match (same as QuerySummaryColumns.summarize).
                    block.trel_max_de = max(0.0, float(trel_max[index]))
                    block.earliest_de = float(earliest[index])
                    block.unfilled_ids = ()
                    block.meta_dirty = False
                    if counters is not None:
                        counters.columnar_refreshes += 1
        state.s_dtrel = np.array(
            [block.dtrel_min for block in blocks], dtype=np.float64
        )
        state.s_trel = np.array(
            [block.trel_max_de for block in blocks], dtype=np.float64
        )
        state.s_earliest = np.array(
            [block.earliest_de for block in blocks], dtype=np.float64
        )
        state.summaries_stale = False

    def prepare(
        self,
        lists: Dict[str, object],
        result_sets,
        alpha: float,
        coeff: float,
        k: int,
        max_ps: float,
        decay_cache,
        now: float,
        counters,
    ) -> Optional[Dict[str, Tuple[List[bool], List[float]]]]:
        """One-pass Lemma 7 prefilter over every candidate block.

        Returns per-term ``(verdicts, thresholds)`` rows.  A ``True``
        verdict means the block is *guaranteed* to be skipped by the
        scalar group check (so the engine may take the skip without
        running it); ``False`` means "unknown — run the scalar check",
        which then reuses the precomputed Eq. 12 threshold instead of
        re-deriving it per block (the value is bit-identical: same
        summaries, same association order, same memoized decay powers).
        """
        states: List[Tuple[str, FlatTermPostings]] = []
        for term, blocks in lists.items():
            state = self.term_state(term, blocks)
            if state.summaries_stale or state.block_count != len(blocks):
                if state.block_count != len(blocks):
                    # Defensive: a structural drift the hooks missed.
                    self._rebuild(state, blocks)
                self.sync_term(
                    state, blocks, result_sets, alpha, coeff, counters
                )
            states.append((term, state))
        if not states:
            return None
        counts = [state.block_count for _term, state in states]
        total = sum(counts)
        if total == 0:
            return None
        if len(states) == 1:
            only = states[0][1]
            dtrel, trel, earliest = only.s_dtrel, only.s_trel, only.s_earliest
        else:
            dtrel = np.concatenate(
                [state.s_dtrel for _term, state in states]
            )
            trel = np.concatenate(
                [state.s_trel for _term, state in states]
            )
            earliest = np.concatenate(
                [state.s_earliest for _term, state in states]
            )
        # Decay powers through the shared memo (CPython pow, exact);
        # ``at_age`` memoizes per unique age, so repeats are dict hits —
        # cheaper than deduplicating the tiny array with ``np.unique``.
        at_age = decay_cache.at_age
        recency = np.array(
            [at_age(age) for age in (now - earliest).tolist()],
            dtype=np.float64,
        )
        # Same association order as threshold_from_summaries: blocks
        # with no filled member carry dtrel_min = -inf, so their
        # threshold is -inf and the verdict is False (fall back).
        threshold = dtrel - alpha * trel * (1.0 - recency)
        upper0 = alpha * max_ps + coeff * ((k - 1) - 0.0)
        verdict = upper0 <= threshold
        rows: Dict[str, Tuple[List[bool], List[float]]] = {}
        position = 0
        for (term, _state), count in zip(states, counts):
            rows[term] = (
                verdict[position : position + count].tolist(),
                threshold[position : position + count].tolist(),
            )
            position += count
        return rows

    # -- audit / accounting -------------------------------------------------

    def audit(self) -> Dict[str, List[List[int]]]:
        """Live postings grouped by block, per term (test hook).

        Structurally-stale terms are rebuilt first, so the view is what
        the next batch pass would see.
        """
        view: Dict[str, List[List[int]]] = {}
        index = self._index
        for term, state in self._terms.items():
            if state.structure_stale:
                self._rebuild(
                    state, index.list_for(term) if index is not None else None
                )
            view[term] = state.live_blocks()
        return view

    def term_names(self):
        return self._terms.keys()
