"""NumPy kernel backend: batched sparse-dot scoring.

Member vectors of a result set (and the documents of a block's MCS
covers) are packed into a dense ``rows × columns`` matrix of unit
weights (``tf/||d||``).  Columns are assigned on first sight through a
plain dict keyed by the interned term ids of the shared
:data:`~repro.text.vocabulary.GLOBAL_VOCABULARY`; restricting a stream
document to the matrix is then a handful of dict lookups followed by a
single mat-vec.  Cosines follow because both sides are unit-normalised.

The result-set matrix is maintained *incrementally*: a replacement
recycles the evicted entry's row slot (zero it, scatter the new
weights) instead of repacking every member, so the per-replacement cost
is O(new document's terms) rather than O(k × terms).  Entry order is
tracked through a row permutation (``row_of``).  Columns are never
deleted eagerly — an evicted document's columns simply go to zero — and
the matrix is rebuilt from scratch only when the column map has grown
well past the live number of non-zeros.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.text.vectors import TermVector

#: Rebuild a result-set matrix once its column map exceeds this many
#: columns *and* this multiple of the live non-zero count (stale columns
#: accumulate as replacements retire terms).
_REPACK_MIN_COLS = 32
_REPACK_WASTE_FACTOR = 2


def _scatter_all(
    matrix: np.ndarray,
    colmap: dict,
    vectors: Sequence[TermVector],
) -> List[List[int]]:
    """Assign columns and scatter every vector's weights into ``matrix``.

    ``colmap`` is filled in insertion order; returns the per-row column
    lists.  ``matrix`` must be zeroed and large enough.
    """
    flat_cols: List[int] = []
    flat_weights: List[float] = []
    lengths: List[int] = []
    per_row: List[List[int]] = []
    for vector in vectors:
        ids, weights = vector.packed()
        lengths.append(len(ids))
        flat_weights.extend(weights)
        cols: List[int] = []
        for term_id in ids:
            col = colmap.get(term_id)
            if col is None:
                col = len(colmap)
                colmap[term_id] = col
            cols.append(col)
        flat_cols.extend(cols)
        per_row.append(cols)
    if flat_cols:
        rows = np.repeat(np.arange(len(vectors), dtype=np.intp), lengths)
        matrix[rows, np.array(flat_cols, dtype=np.intp)] = flat_weights
    return per_row


def _full_pack(vectors: Sequence[TermVector]) -> Tuple[dict, np.ndarray]:
    """Pack sparse vectors into (column map, exact-size weight matrix)."""
    union: dict = {}
    for vector in vectors:
        for term_id in vector.packed()[0]:
            union[term_id] = True
    matrix = np.zeros((len(vectors), len(union)), dtype=np.float64)
    colmap: dict = {}
    _scatter_all(matrix, colmap, vectors)
    return colmap, matrix


class _PackedEntries:
    """Incrementally-maintained member matrix of one result set.

    ``row_of[i]`` is the physical matrix row of the i-th (oldest-first)
    entry; ``order`` is the same permutation as an index array.  The
    physical rows in use are always exactly ``0..n-1`` (a replacement
    recycles the evicted slot), so row ``r``'s live columns can be kept
    in ``phys_cols[r]`` and eviction zeroes just those cells.  ``nnz``
    tracks the live non-zero count so the staleness check for a full
    rebuild is O(1); matrix capacity doubles on growth to amortise
    reallocation.
    """

    __slots__ = ("colmap", "matrix", "row_of", "phys_cols", "nnz", "order")

    def __init__(self, entries: Sequence) -> None:
        vectors = [entry.document.vector for entry in entries]
        union: dict = {}
        nnz = 0
        for vector in vectors:
            ids = vector.packed()[0]
            nnz += len(ids)
            for term_id in ids:
                union[term_id] = True
        n = len(entries)
        # Column capacity covers the staleness threshold so replacements
        # almost never reallocate: the map is rebuilt in place before it
        # can outgrow the buffer (doc sizes drifting up is the rare
        # exception, handled by doubling in _scatter_row).
        capacity = max(
            _REPACK_WASTE_FACTOR * nnz + 16, len(union), _REPACK_MIN_COLS
        )
        self.matrix = np.zeros((max(n, 1), capacity), dtype=np.float64)
        self.colmap = {}
        self.phys_cols = _scatter_all(self.matrix, self.colmap, vectors)
        self.nnz = nnz
        self.row_of = list(range(n))
        self.order = np.arange(n, dtype=np.intp)

    # -- incremental maintenance ------------------------------------------

    def _scatter_row(self, row: int, vector: TermVector) -> None:
        """Write ``vector``'s unit weights into physical row ``row``."""
        ids, weights = vector.packed()
        colmap = self.colmap
        cols: List[int] = []
        for term_id in ids:
            col = colmap.get(term_id)
            if col is None:
                col = len(colmap)
                colmap[term_id] = col
            cols.append(col)
        capacity = self.matrix.shape[1]
        if len(colmap) > capacity:
            grown = np.zeros(
                (self.matrix.shape[0], max(2 * capacity, len(colmap))),
                dtype=np.float64,
            )
            grown[:, :capacity] = self.matrix
            self.matrix = grown
        if cols:
            self.matrix[row, cols] = weights
        self.phys_cols[row] = cols
        self.nnz += len(cols)

    def append(self, entries: Sequence) -> None:
        """Mirror a result-set admit: ``entries[-1]`` is the new member."""
        row = len(self.row_of)
        if row >= self.matrix.shape[0]:
            grown = np.zeros(
                (max(2 * self.matrix.shape[0], row + 1), self.matrix.shape[1]),
                dtype=np.float64,
            )
            grown[: self.matrix.shape[0]] = self.matrix
            self.matrix = grown
        self.phys_cols.append([])
        self._scatter_row(row, entries[-1].document.vector)
        self.row_of.append(row)
        self.order = np.array(self.row_of, dtype=np.intp)

    def replace(self, entries: Sequence) -> None:
        """Mirror a result-set replace: oldest evicted, newest appended."""
        if (
            len(self.colmap) > _REPACK_MIN_COLS
            and len(self.colmap) > _REPACK_WASTE_FACTOR * max(self.nnz, 1)
        ):
            self._repack_in_place(entries)
            return
        row = self.row_of.pop(0)
        old_cols = self.phys_cols[row]
        if old_cols:
            self.matrix[row, old_cols] = 0.0
        self.nnz -= len(old_cols)
        self._scatter_row(row, entries[-1].document.vector)
        self.row_of.append(row)
        self.order = np.array(self.row_of, dtype=np.intp)

    def _repack_in_place(self, entries: Sequence) -> None:
        """Compact the column map, reusing the existing matrix buffer.

        Every live term already has a (possibly stale) column, so the
        compacted map always fits in the current capacity — no
        allocation, just a zero-fill of the used region and a re-scatter.
        """
        n = len(entries)
        self.matrix[:n, : len(self.colmap)] = 0.0
        self.colmap = {}
        self.phys_cols = _scatter_all(
            self.matrix,
            self.colmap,
            [entry.document.vector for entry in entries],
        )
        self.nnz = sum(len(cols) for cols in self.phys_cols)
        self.row_of = list(range(n))
        self.order = np.arange(n, dtype=np.intp)


class _PackedCovers:
    """Packed cover-member matrix of one block's MCS summary."""

    __slots__ = ("colmap", "matrix", "starts")

    def __init__(self, covers: Sequence) -> None:
        vectors = [
            document.vector for cover in covers for document in cover
        ]
        self.colmap, self.matrix = _full_pack(vectors)
        lengths = [len(cover) for cover in covers]
        self.starts = np.cumsum([0] + lengths[:-1], dtype=np.intp)


def _restrict(colmap: dict, vector: TermVector):
    """``vector``'s (columns, weights) overlapping the packed matrix."""
    ids, weights = vector.packed()
    cols: List[int] = []
    kept: List[float] = []
    for index, term_id in enumerate(ids):
        col = colmap.get(term_id)
        if col is not None:
            cols.append(col)
            kept.append(weights[index])
    return cols, kept


class NumpyKernels:
    """Vectorised backend over packed term-id/weight matrices.

    Every op computes all of its rows in one mat-vec, so the python
    backend's publish-scoped ``cache`` argument is accepted and ignored.
    """

    name = "numpy"

    # -- result-set kernels ------------------------------------------------

    def pack_entries(self, entries: Sequence) -> _PackedEntries:
        return _PackedEntries(entries)

    def packed_append(
        self, packed: _PackedEntries, entries: Sequence
    ) -> _PackedEntries:
        packed.append(entries)
        return packed

    def packed_replace(
        self, packed: _PackedEntries, entries: Sequence
    ) -> _PackedEntries:
        packed.replace(entries)
        return packed

    def similarities_to(
        self,
        packed: _PackedEntries,
        entries: Sequence,
        vector: TermVector,
        cache=None,
    ) -> List[float]:
        n = len(entries)
        if n == 0:
            return []
        cols, weights = _restrict(packed.colmap, vector)
        if not cols:
            return [0.0] * n
        if len(cols) == 1:
            sims = packed.matrix[:, cols[0]] * weights[0]
        else:
            sims = packed.matrix[:, cols] @ np.asarray(weights)
        return sims.take(packed.order).tolist()

    def tail_similarities(
        self,
        packed: _PackedEntries,
        entries: Sequence,
        vector: TermVector,
        cache=None,
    ) -> List[float]:
        n = len(entries)
        if n <= 1:
            return []
        cols, weights = _restrict(packed.colmap, vector)
        if not cols:
            return [0.0] * (n - 1)
        if len(cols) == 1:
            sims = packed.matrix[:, cols[0]] * weights[0]
        else:
            sims = packed.matrix[:, cols] @ np.asarray(weights)
        return sims.take(packed.order[1:]).tolist()

    def tail_similarity_sum(
        self,
        packed: _PackedEntries,
        entries: Sequence,
        vector: TermVector,
        skip_aw_resident: bool,
        cache=None,
    ) -> Tuple[float, int]:
        if skip_aw_resident:
            row_of = packed.row_of
            rows = [
                row_of[index]
                for index in range(1, len(entries))
                if not entries[index].aw_resident
            ]
        else:
            rows = packed.row_of[1:]
        count = len(rows)
        if count == 0:
            return 0.0, 0
        cols, weights = _restrict(packed.colmap, vector)
        if not cols:
            return 0.0, count
        if len(cols) == 1:
            sims = packed.matrix[:, cols[0]] * weights[0]
        else:
            sims = packed.matrix[:, cols] @ np.asarray(weights)
        return float(sims.take(rows).sum()), count

    def aw_similarity_sum(self, aw, vector: TermVector) -> float:
        """Lemma 6 aggregated-weight sum over the table's sorted columns.

        Falls back to the dict walk for an empty table.
        """
        arrays = aw.arrays()
        if arrays is None:
            return aw.similarity_sum(vector)
        ids, weights = arrays
        vector_ids, vector_weights = vector.packed()
        if not vector_ids:
            return 0.0
        probe = np.asarray(vector_ids, dtype=np.int64)
        positions = np.searchsorted(ids, probe)
        positions = np.minimum(positions, len(ids) - 1)
        hits = ids[positions] == probe
        if not hits.any():
            return 0.0
        return float(
            weights[positions[hits]]
            @ np.asarray(vector_weights, dtype=np.float64)[hits]
        )

    # -- group-bound kernels -----------------------------------------------

    def pack_covers(self, covers: Sequence) -> _PackedCovers:
        return _PackedCovers(covers)

    def cover_min_sim_sum(
        self,
        packed: _PackedCovers,
        covers: Sequence,
        vector: TermVector,
        cache=None,
    ) -> float:
        if not covers:
            return 0.0
        cols, weights = _restrict(packed.colmap, vector)
        if not cols:
            return 0.0
        if len(cols) == 1:
            sims = packed.matrix[:, cols[0]] * weights[0]
        else:
            sims = packed.matrix[:, cols] @ np.asarray(weights)
        return float(np.minimum.reduceat(sims, packed.starts).sum())
