"""Shape-adaptive kernel dispatch: python or numpy, committed per batch.

``BENCH_throughput.json`` showed the NumPy backend *losing* to pure
Python at the benchmark's shapes (0.68x on GIFilter at k=20): a
``k x |union terms|`` mat-vec only amortises NumPy's per-call overhead
(restriction dict lookups, array construction, dispatch) once the
member matrix has enough rows, and MCS cover sets at small k are far
below that point.  The first ``auto`` policy re-checked the shape on
*every* kernel call, and the check itself (an extra bound-method frame
plus a ``len`` comparison per op) cost ~9% at small k — auto came in at
0.91x python (ISSUE 6 satellite 1).

The fix: decide once per micro-batch.  ``k`` is fixed for an engine and
the candidate-block population is frozen while a batch runs, so the
winning backend for every result-set op in the batch is known *before*
the batch starts.  :meth:`AdaptiveKernels.begin_batch` classifies the
batch with :func:`choose_batch_mode` and rebinds the hot ops as
*instance attributes* pointing straight at the chosen backend's bound
methods — zero per-call dispatch in the committed modes (the python
backend's ops ignore their ``packed`` argument by contract, so they
accept the adaptive holders unchanged).

Modes (see :func:`choose_batch_mode`):

``numpy``
    ``k`` clears the row crossover: every result-set op in the batch
    runs vectorised (covers keep the per-cover size check — tiny cover
    sets still lose to the Python min-reduce).
``mixed``
    ``k`` below the crossover but the batch carries enough group-filter
    work (``batch size × candidate blocks``) to amortise packed-cover
    reuse: result-set ops commit to Python, cover sets stay
    size-adaptive.
``python``
    Small ``k`` *and* a small batch: everything scalar, including cover
    packing (a packed cover that will be probed a handful of times never
    pays for itself).

Both backends are decision-equivalent (see the package docstring), so
mixing them — per batch or per cover — preserves the engine's
notification stream with respect to either pure backend's decisions.

Crossover thresholds default to values measured on the benchmark
machine (see EXPERIMENTS.md "Auto backend policy") and can be
overridden through ``REPRO_AUTO_MIN_ROWS`` / ``REPRO_AUTO_MIN_COVER`` /
``REPRO_AUTO_MIN_BATCH_WORK`` or the constructor.
:func:`measure_crossover` re-derives the row crossover empirically on
the current host.
"""

from __future__ import annotations

import os
from typing import List, Sequence, Tuple

from repro.text.vectors import TermVector

#: Member-matrix rows below which the pure-Python loop wins (measured:
#: NumPy overtakes somewhere past ~30 rows on CPython 3.11 / x86_64;
#: the engine's k=20-30 result sets sit firmly on the Python side).
DEFAULT_MIN_ROWS = 32
#: Row crossover for engines *without* the aggregated-weights shortcut
#: (BIRT / IRT).  Their Lemma 6 check runs the full tail-similarity
#: matrix on every candidate instead of the AW dot product, so NumPy
#: amortises much earlier — ``BENCH_throughput.json`` showed auto
#: committing these methods to python mode at k=20 and losing to the
#: fixed numpy backend (ISSUE 9 satellite 1).
DEFAULT_MIN_ROWS_NO_AW = 16
#: Total cover documents below which the Python min-reduce wins.  MCS
#: covers hold at most k-1 documents each, so small-k blocks never pay
#: the NumPy packing cost.
DEFAULT_MIN_COVER = 32
#: ``batch size × candidate blocks`` below which a batch is too small to
#: amortise packed-cover reuse — everything stays scalar.
DEFAULT_MIN_BATCH_WORK = 256


def _env_threshold(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return max(0, int(raw))
    except ValueError:
        return default


def choose_batch_mode(
    batch_size: int,
    k: int,
    candidate_blocks: int,
    min_rows: int = DEFAULT_MIN_ROWS,
    min_batch_work: int = DEFAULT_MIN_BATCH_WORK,
    aw_shortcut: bool = True,
    min_rows_no_aw: int = DEFAULT_MIN_ROWS_NO_AW,
) -> str:
    """Classify a micro-batch: ``"numpy"``, ``"mixed"`` or ``"python"``.

    ``k`` decides the result-set ops outright (the member matrix has
    exactly k rows once warm); ``batch_size × candidate_blocks`` meters
    how many group-filter probes the batch will make, i.e. how often a
    packed cover could be reused before the next rebuild.

    ``aw_shortcut`` states whether the engine's Lemma 6 check runs as
    an aggregated-weights dot product (GIFilter / IFilter).  Baseline
    methods without it (BIRT / IRT) pay the full tail-similarity matrix
    per candidate, where NumPy's crossover sits far lower — they commit
    against ``min_rows_no_aw`` instead.
    """
    if k >= (min_rows if aw_shortcut else min_rows_no_aw):
        return "numpy"
    if batch_size * max(candidate_blocks, 1) >= min_batch_work:
        return "mixed"
    return "python"


class _AdaptiveEntries:
    """Packed-entries holder: NumPy form built lazily, on first use by a
    numpy-committed batch, then maintained incrementally alongside the
    entry list like the pure NumPy backend would."""

    __slots__ = ("inner",)

    def __init__(self) -> None:
        self.inner = None


class _AdaptiveCovers:
    """Packed-covers holder; built eagerly (covers are immutable between
    MCS rebuilds, so there is no maintenance to defer).  ``inner`` is
    None when the cover set was packed scalar — the holder stays valid
    across later mode switches because :meth:`cover_min_sim_sum`
    dispatches on it."""

    __slots__ = ("inner",)

    def __init__(self, inner) -> None:
        self.inner = inner


class AdaptiveKernels:
    """Batch-committed python/numpy dispatch (``backend = "auto"``)."""

    name = "auto"

    def __init__(
        self,
        python_backend,
        numpy_backend,
        min_rows: int = None,
        min_cover: int = None,
        min_batch_work: int = None,
    ) -> None:
        self._python = python_backend
        self._numpy = numpy_backend
        self.min_rows = (
            min_rows
            if min_rows is not None
            else _env_threshold("REPRO_AUTO_MIN_ROWS", DEFAULT_MIN_ROWS)
        )
        self.min_cover = (
            min_cover
            if min_cover is not None
            else _env_threshold("REPRO_AUTO_MIN_COVER", DEFAULT_MIN_COVER)
        )
        self.min_batch_work = (
            min_batch_work
            if min_batch_work is not None
            else _env_threshold(
                "REPRO_AUTO_MIN_BATCH_WORK", DEFAULT_MIN_BATCH_WORK
            )
        )
        self.min_rows_no_aw = _env_threshold(
            "REPRO_AUTO_MIN_ROWS_NO_AW", DEFAULT_MIN_ROWS_NO_AW
        )
        #: Current batch mode; ``"per_call"`` = legacy per-call shape
        #: dispatch through the class methods (no batch declared yet).
        self.mode = "per_call"
        # Per-mode hot-op tables.  Instance attributes shadow the class
        # methods, so committing a mode binds each op DIRECTLY to the
        # target backend's bound method — no adaptive frame in between.
        scalar_ops = {
            "similarities_to": python_backend.similarities_to,
            "tail_similarities": python_backend.tail_similarities,
            "tail_similarity_sum": python_backend.tail_similarity_sum,
            "aw_similarity_sum": python_backend.aw_similarity_sum,
        }
        self._mode_tables = {
            "python": dict(scalar_ops, pack_covers=self._pack_covers_scalar),
            "mixed": dict(scalar_ops, pack_covers=self._pack_covers_adaptive),
            "numpy": {
                "similarities_to": self._similarities_to_numpy,
                "tail_similarities": self._tail_similarities_numpy,
                "tail_similarity_sum": self._tail_similarity_sum_numpy,
                "aw_similarity_sum": self._aw_similarity_sum_numpy,
                "pack_covers": self._pack_covers_adaptive,
            },
        }

    # -- batch commitment ---------------------------------------------------

    def begin_batch(
        self,
        batch_size: int,
        k: int,
        candidate_blocks: int,
        aw_shortcut: bool = True,
    ) -> str:
        """Commit the coming micro-batch to one dispatch mode.

        Rebinding only happens on a mode *change*, so steady workloads
        pay a dict lookup and three comparisons per batch.
        """
        mode = choose_batch_mode(
            batch_size,
            k,
            candidate_blocks,
            self.min_rows,
            self.min_batch_work,
            aw_shortcut,
            self.min_rows_no_aw,
        )
        if mode != self.mode:
            self.mode = mode
            for op_name, impl in self._mode_tables[mode].items():
                setattr(self, op_name, impl)
        return mode

    # -- result-set kernels ------------------------------------------------

    def pack_entries(self, entries: Sequence) -> _AdaptiveEntries:
        return _AdaptiveEntries()

    def packed_append(
        self, packed: _AdaptiveEntries, entries: Sequence
    ) -> _AdaptiveEntries:
        if packed.inner is not None:
            packed.inner = self._numpy.packed_append(packed.inner, entries)
        return packed

    def packed_replace(
        self, packed: _AdaptiveEntries, entries: Sequence
    ) -> _AdaptiveEntries:
        if packed.inner is not None:
            packed.inner = self._numpy.packed_replace(packed.inner, entries)
        return packed

    def _numpy_entries(self, packed: _AdaptiveEntries, entries: Sequence):
        if packed.inner is None:
            packed.inner = self._numpy.pack_entries(entries)
        return packed.inner

    # Committed-numpy forms (no shape check; bound via begin_batch).  The
    # publish-scoped ``cache`` only ever reaches the python backend.

    def _similarities_to_numpy(
        self,
        packed: _AdaptiveEntries,
        entries: Sequence,
        vector: TermVector,
        cache=None,
    ) -> List[float]:
        return self._numpy.similarities_to(
            self._numpy_entries(packed, entries), entries, vector
        )

    def _tail_similarities_numpy(
        self,
        packed: _AdaptiveEntries,
        entries: Sequence,
        vector: TermVector,
        cache=None,
    ) -> List[float]:
        return self._numpy.tail_similarities(
            self._numpy_entries(packed, entries), entries, vector
        )

    def _tail_similarity_sum_numpy(
        self,
        packed: _AdaptiveEntries,
        entries: Sequence,
        vector: TermVector,
        skip_aw_resident: bool,
        cache=None,
    ) -> Tuple[float, int]:
        return self._numpy.tail_similarity_sum(
            self._numpy_entries(packed, entries),
            entries,
            vector,
            skip_aw_resident,
        )

    def _aw_similarity_sum_numpy(self, aw, vector: TermVector) -> float:
        return self._numpy.aw_similarity_sum(aw, vector)

    # Legacy per-call forms (class methods; live until begin_batch runs).

    def similarities_to(
        self,
        packed: _AdaptiveEntries,
        entries: Sequence,
        vector: TermVector,
        cache=None,
    ) -> List[float]:
        if len(entries) >= self.min_rows:
            return self._similarities_to_numpy(packed, entries, vector)
        return self._python.similarities_to(None, entries, vector, cache)

    def tail_similarities(
        self,
        packed: _AdaptiveEntries,
        entries: Sequence,
        vector: TermVector,
        cache=None,
    ) -> List[float]:
        if len(entries) >= self.min_rows:
            return self._tail_similarities_numpy(packed, entries, vector)
        return self._python.tail_similarities(None, entries, vector, cache)

    def tail_similarity_sum(
        self,
        packed: _AdaptiveEntries,
        entries: Sequence,
        vector: TermVector,
        skip_aw_resident: bool,
        cache=None,
    ) -> Tuple[float, int]:
        if len(entries) >= self.min_rows:
            return self._tail_similarity_sum_numpy(
                packed, entries, vector, skip_aw_resident
            )
        return self._python.tail_similarity_sum(
            None, entries, vector, skip_aw_resident, cache
        )

    def aw_similarity_sum(self, aw, vector: TermVector) -> float:
        return self._python.aw_similarity_sum(aw, vector)

    # -- group-bound kernels -----------------------------------------------

    def _pack_covers_scalar(self, covers: Sequence) -> _AdaptiveCovers:
        return _AdaptiveCovers(None)

    def _pack_covers_adaptive(self, covers: Sequence) -> _AdaptiveCovers:
        members = sum(len(cover) for cover in covers)
        if members >= self.min_cover:
            return _AdaptiveCovers(self._numpy.pack_covers(covers))
        return _AdaptiveCovers(None)

    def pack_covers(self, covers: Sequence) -> _AdaptiveCovers:
        return self._pack_covers_adaptive(covers)

    def cover_min_sim_sum(
        self,
        packed: _AdaptiveCovers,
        covers: Sequence,
        vector: TermVector,
        cache=None,
    ) -> float:
        # Always dispatches on the holder: a cover packed scalar in one
        # batch stays valid (and scalar) if probed again after a mode
        # switch, because the filtering layer caches packed covers by
        # cover-list identity.
        if packed.inner is not None:
            return self._numpy.cover_min_sim_sum(packed.inner, covers, vector)
        return self._python.cover_min_sim_sum(None, covers, vector, cache)


def measure_crossover(
    python_backend,
    numpy_backend,
    row_counts: Sequence[int] = (4, 8, 16, 32, 64, 128, 256),
    terms_per_doc: int = 8,
    repeats: int = 200,
) -> int:
    """Empirical row-count crossover on this host.

    Times ``similarities_to`` on synthetic result sets of growing size
    and returns the smallest row count at which NumPy beat Python (or
    the largest probed count plus one if it never did).  Used to
    recalibrate :data:`DEFAULT_MIN_ROWS` — never called on a hot path.
    """
    import time

    class _Entry:
        __slots__ = ("document",)

        def __init__(self, document) -> None:
            self.document = document

    class _Doc:
        __slots__ = ("vector",)

        def __init__(self, vector) -> None:
            self.vector = vector

    def _vector(seed: int) -> TermVector:
        return TermVector(
            {
                f"t{(seed * 7 + i * 13) % (terms_per_doc * 16)}": 1 + (seed + i) % 3
                for i in range(terms_per_doc)
            }
        )

    for rows in row_counts:
        entries = [_Entry(_Doc(_vector(i))) for i in range(rows)]
        probe = _vector(rows + 1)
        timings = {}
        for name, backend in (("python", python_backend), ("numpy", numpy_backend)):
            packed = backend.pack_entries(entries)
            backend.similarities_to(packed, entries, probe)  # warm-up
            start = time.perf_counter()
            for _ in range(repeats):
                backend.similarities_to(packed, entries, probe)
            timings[name] = time.perf_counter() - start
        if timings["numpy"] < timings["python"]:
            return rows
    return max(row_counts) + 1
