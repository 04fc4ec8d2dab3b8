"""Pure-Python kernel backend.

The reference implementation of the kernel interface: the exact loops
(and float summation order) the engine used before the kernel layer was
introduced, so the ``python`` backend reproduces the original engine
bit-for-bit.  No packing is needed — the ops read the live
:class:`~repro.core.result_set.ResultEntry` rows and
:class:`~repro.core.mcs.CoverSet` documents directly, so ``pack_*``
return ``None`` and every op treats the packed argument as opaque.

The interface (shared with ``numpy_backend``):

``pack_entries(entries)`` / ``pack_covers(covers)``
    Build a backend-specific packed form; invalidated by the caller
    whenever the underlying rows change.
``packed_append(packed, entries)`` / ``packed_replace(packed, entries)``
    Mirror a result-set admit / replace into an existing packed form
    (called after the entry list was mutated; the new member is
    ``entries[-1]``) and return the packed form to keep.
``similarities_to(packed, entries, vector, cache)``
    Cosine of ``vector`` against every entry, oldest first.
``tail_similarities(packed, entries, vector, cache)``
    Cosines against ``entries[1:]`` (the replace path's kept rows).
``tail_similarity_sum(packed, entries, vector, skip_aw_resident, cache)``
    Direct-cosine part of the Lemma 6 similarity sum; returns
    ``(total, count)`` where ``count`` meters the cosines evaluated.
``cover_min_sim_sum(packed, covers, vector, cache)``
    ``Σ_cover min_{d ∈ cover} Sim(vector, d)`` — the MCS part of the
    group similarity bound (Eq. 19).

``cache`` is the engine's publish-scoped :class:`SimCache` (None outside
a publish): the result sets and covers a stream document reaches hold
the same few stored documents, so this backend computes each
``Sim(vector, stored document)`` once per publish.  The NumPy backend
ignores it — its mat-vec floats differ in the last bits and must never
be served to this backend.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.text.vectors import TermVector, cosine_similarity


class SimCache(dict):
    """``{stored doc_id: Sim(d_n, stored document)}`` for one stream
    document ``d_n``.  The owner clears it before every document;
    ``lookups`` meters the values served, so hits = lookups − len."""

    __slots__ = ("lookups",)

    def __init__(self) -> None:
        self.lookups = 0

    def clear(self) -> None:
        super().clear()
        self.lookups = 0


def cached_cosines(
    vector: TermVector, documents: Iterable, cache: Optional[SimCache]
) -> List[float]:
    """``[cosine_similarity(vector, d.vector) for d in documents]`` — the
    exact floats — each computed at most once per ``cache``."""
    if cache is None:
        return [cosine_similarity(vector, d.vector) for d in documents]
    get = cache.get
    sims = []
    for document in documents:
        doc_id = document.doc_id
        sim = get(doc_id)
        if sim is None:
            sim = cache[doc_id] = cosine_similarity(vector, document.vector)
        sims.append(sim)
    cache.lookups += len(sims)
    return sims


class PythonKernels:
    """Dependency-free reference backend."""

    name = "python"

    # -- result-set kernels ------------------------------------------------

    def pack_entries(self, entries: Sequence) -> None:
        return None

    def packed_append(self, packed: None, entries: Sequence) -> None:
        return None

    def packed_replace(self, packed: None, entries: Sequence) -> None:
        return None

    def similarities_to(
        self, packed: None, entries: Sequence, vector: TermVector, cache=None
    ) -> List[float]:
        return cached_cosines(
            vector, [entry.document for entry in entries], cache
        )

    def tail_similarities(
        self, packed: None, entries: Sequence, vector: TermVector, cache=None
    ) -> List[float]:
        return self.similarities_to(None, entries[1:], vector, cache)

    def tail_similarity_sum(
        self,
        packed: None,
        entries: Sequence,
        vector: TermVector,
        skip_aw_resident: bool,
        cache=None,
    ) -> Tuple[float, int]:
        rows = entries[1:]
        if skip_aw_resident:
            rows = [entry for entry in rows if not entry.aw_resident]
        total = 0.0
        for sim in self.similarities_to(None, rows, vector, cache):
            total += sim
        return total, len(rows)

    def aw_similarity_sum(self, aw, vector: TermVector) -> float:
        """Lemma 6 aggregated-weight sum — the reference dict walk."""
        return aw.similarity_sum(vector)

    # -- group-bound kernels -----------------------------------------------

    def pack_covers(self, covers: Sequence) -> None:
        return None

    def cover_min_sim_sum(
        self, packed: None, covers: Sequence, vector: TermVector, cache=None
    ) -> float:
        total = 0.0
        for cover in covers:
            total += min(cached_cosines(vector, cover.documents, cache))
        return total
