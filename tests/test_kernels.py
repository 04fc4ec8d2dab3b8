"""Kernel backend unit tests.

Each backend op is checked against the scalar ground truth
(:func:`~repro.text.vectors.cosine_similarity`), including the NumPy
backend's incremental packed-matrix maintenance (append / replace /
in-place repack) and the backend resolution rules of
``repro.kernels.resolve_backend``.
"""

from __future__ import annotations

import random

import pytest

import repro.kernels as kernels_module
from repro.core.mcs import CoverSet
from repro.core.result_set import QueryResultSet, ResultEntry
from repro.errors import ConfigurationError
from repro.kernels import (
    BACKEND_CHOICES,
    default_kernels,
    numpy_available,
    resolve_backend,
)
from repro.stream.document import Document
from repro.text.vectors import TermVector, cosine_similarity

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


@pytest.fixture(params=BACKENDS)
def kernels(request):
    return resolve_backend(request.param)


def random_vector(rng: random.Random, pool: int = 40, terms: int = 6):
    n = rng.randint(1, terms)
    tf = {f"t{rng.randrange(pool)}": rng.randint(1, 4) for _ in range(n)}
    return TermVector(tf)


def make_entries(rng: random.Random, n: int, first_id: int = 0):
    entries = []
    for i in range(n):
        document = Document(first_id + i, random_vector(rng), float(i))
        entry = ResultEntry(document, trel=rng.random())
        entry.aw_resident = i > 0 and rng.random() < 0.5
        entries.append(entry)
    return entries


# -- resolution -------------------------------------------------------------


def test_backend_choices_resolve():
    assert resolve_backend("python").name == "python"
    assert resolve_backend("auto").name in ("python", "auto")
    assert default_kernels().name == "python"
    assert set(BACKEND_CHOICES) == {"auto", "python", "numpy"}


def test_unknown_backend_rejected():
    with pytest.raises(ConfigurationError):
        resolve_backend("cython")


@pytest.mark.skipif(not numpy_available(), reason="NumPy not importable")
def test_numpy_backend_resolves():
    assert resolve_backend("numpy").name == "numpy"
    # With NumPy importable, "auto" is the shape-adaptive dispatcher.
    auto = resolve_backend("auto")
    assert auto.name == "auto"
    assert auto is resolve_backend("auto")


def test_numpy_absent_fallback(monkeypatch):
    """With NumPy unavailable, ``auto`` degrades and ``numpy`` errors."""
    monkeypatch.setattr(kernels_module, "_NUMPY_SINGLETON", None)
    monkeypatch.setattr(kernels_module, "_NUMPY_FAILED", True)
    assert kernels_module.numpy_available() is False
    assert kernels_module.resolve_backend("auto").name == "python"
    with pytest.raises(ConfigurationError):
        kernels_module.resolve_backend("numpy")


def test_numpy_absent_engine_runs(monkeypatch):
    """The engine stays fully functional on the fallback backend."""
    monkeypatch.setattr(kernels_module, "_NUMPY_SINGLETON", None)
    monkeypatch.setattr(kernels_module, "_NUMPY_FAILED", True)
    from repro.core.engine import DasEngine
    from repro.core.query import DasQuery

    engine = DasEngine.for_method("GIFilter", k=2, block_size=2)
    assert engine.backend_name == "python"
    engine.subscribe(DasQuery(0, ["alpha", "beta"]))
    for i, tokens in enumerate(
        (["alpha"], ["beta", "gamma"], ["alpha", "beta"])
    ):
        engine.publish(Document.from_tokens(i, tokens, float(i)))
    assert [d.doc_id for d in engine.results(0)] == [1, 0]


# -- result-set ops vs ground truth ----------------------------------------


def test_similarities_to_matches_cosine(kernels):
    rng = random.Random(7)
    for trial in range(20):
        entries = make_entries(rng, rng.randint(0, 8), first_id=100 * trial)
        packed = kernels.pack_entries(entries)
        probe = random_vector(rng)
        expected = [
            cosine_similarity(probe, entry.document.vector)
            for entry in entries
        ]
        got = kernels.similarities_to(packed, entries, probe)
        assert got == pytest.approx(expected, abs=1e-12)
        tail = kernels.tail_similarities(packed, entries, probe)
        assert tail == pytest.approx(expected[1:], abs=1e-12)


def test_tail_similarity_sum_matches_cosine(kernels):
    rng = random.Random(11)
    for trial in range(20):
        entries = make_entries(rng, rng.randint(1, 8), first_id=100 * trial)
        packed = kernels.pack_entries(entries)
        probe = random_vector(rng)
        for skip in (False, True):
            tail = [
                entry
                for entry in entries[1:]
                if not (skip and entry.aw_resident)
            ]
            expected = sum(
                cosine_similarity(probe, entry.document.vector)
                for entry in tail
            )
            total, count = kernels.tail_similarity_sum(
                packed, entries, probe, skip_aw_resident=skip
            )
            assert count == len(tail)
            assert total == pytest.approx(expected, abs=1e-12)


def test_disjoint_probe_yields_zeros(kernels):
    rng = random.Random(13)
    entries = make_entries(rng, 5)
    packed = kernels.pack_entries(entries)
    probe = TermVector({"unseen-term": 3})
    assert kernels.similarities_to(packed, entries, probe) == [0.0] * 5
    total, count = kernels.tail_similarity_sum(
        packed, entries, probe, skip_aw_resident=False
    )
    assert total == 0.0 and count == 4


def test_empty_probe_and_empty_entries(kernels):
    rng = random.Random(17)
    entries = make_entries(rng, 3)
    packed = kernels.pack_entries(entries)
    empty = TermVector({})
    assert kernels.similarities_to(packed, entries, empty) == [0.0] * 3
    no_entries = kernels.pack_entries([])
    assert kernels.similarities_to(no_entries, [], empty) == []


# -- incremental maintenance ------------------------------------------------


def check_against_fresh(kernels, packed, entries, rng):
    """The maintained packed form answers like a freshly packed one."""
    probe = random_vector(rng)
    fresh = kernels.pack_entries(entries)
    assert kernels.similarities_to(
        packed, entries, probe
    ) == pytest.approx(
        kernels.similarities_to(fresh, entries, probe), abs=1e-12
    )


def test_packed_append_tracks_admits(kernels):
    rng = random.Random(19)
    entries = make_entries(rng, 1)
    packed = kernels.pack_entries(entries)
    for i in range(12):
        entries.append(
            ResultEntry(Document(50 + i, random_vector(rng), 1.0 + i), 0.5)
        )
        packed = kernels.packed_append(packed, entries)
        check_against_fresh(kernels, packed, entries, rng)


def test_packed_replace_tracks_evictions(kernels):
    rng = random.Random(23)
    entries = make_entries(rng, 4)
    packed = kernels.pack_entries(entries)
    for i in range(30):
        entries.pop(0)
        entries.append(
            ResultEntry(Document(200 + i, random_vector(rng), 4.0 + i), 0.5)
        )
        packed = kernels.packed_replace(packed, entries)
        check_against_fresh(kernels, packed, entries, rng)


def test_packed_replace_survives_column_churn(kernels):
    """Replacements with all-fresh terms force the staleness repack."""
    rng = random.Random(29)
    entries = [
        ResultEntry(
            Document(i, TermVector({f"w{i}-{j}": 1 for j in range(10)}), 0.0),
            0.5,
        )
        for i in range(3)
    ]
    packed = kernels.pack_entries(entries)
    for i in range(20):
        entries.pop(0)
        fresh_terms = {f"r{i}-{j}": j + 1 for j in range(10)}
        entries.append(
            ResultEntry(Document(100 + i, TermVector(fresh_terms), float(i)), 0.5)
        )
        packed = kernels.packed_replace(packed, entries)
        check_against_fresh(kernels, packed, entries, rng)


def test_packed_replace_survives_giant_document(kernels):
    """A new member far wider than the initial capacity still scatters."""
    rng = random.Random(31)
    entries = make_entries(rng, 2)
    packed = kernels.pack_entries(entries)
    entries.pop(0)
    entries.append(
        ResultEntry(
            Document(999, TermVector({f"g{j}": 1 for j in range(120)}), 9.0),
            0.5,
        )
    )
    packed = kernels.packed_replace(packed, entries)
    check_against_fresh(kernels, packed, entries, rng)


def test_result_set_incremental_matches_python_reference():
    """A QueryResultSet maintained on each backend answers identically."""
    if not numpy_available():
        pytest.skip("NumPy not importable")
    rng_a, rng_b = random.Random(37), random.Random(37)
    sets = {
        "python": QueryResultSet(4, kernels=resolve_backend("python")),
        "numpy": QueryResultSet(4, kernels=resolve_backend("numpy")),
    }
    rngs = {"python": rng_a, "numpy": rng_b}
    docs = [
        Document(i, random_vector(random.Random(41 + i)), float(i))
        for i in range(40)
    ]
    for i, document in enumerate(docs):
        answers = {}
        for name, result_set in sets.items():
            # Touch the packed form so every mutation runs incrementally.
            result_set.similarities_to(random_vector(rngs[name]))
            if not result_set.is_full:
                result_set.admit(document, 0.5)
            else:
                result_set.replace(document, 0.5)
            answers[name] = result_set.similarity_sum(document.vector)
        py_total, py_direct, py_aw = answers["python"]
        np_total, np_direct, np_aw = answers["numpy"]
        assert np_total == pytest.approx(py_total, abs=1e-9), i
        assert (np_direct, np_aw) == (py_direct, py_aw), i


# -- cover kernels ----------------------------------------------------------


def test_cover_min_sim_sum_matches_cosine(kernels):
    rng = random.Random(43)
    for trial in range(20):
        covers = [
            CoverSet(
                [
                    Document(1000 * trial + 10 * c + j, random_vector(rng), 0.0)
                    for j in range(rng.randint(1, 4))
                ]
            )
            for c in range(rng.randint(1, 5))
        ]
        packed = kernels.pack_covers(covers)
        probe = random_vector(rng)
        expected = sum(
            min(
                cosine_similarity(probe, document.vector)
                for document in cover
            )
            for cover in covers
        )
        got = kernels.cover_min_sim_sum(packed, covers, probe)
        assert got == pytest.approx(expected, abs=1e-12)


def test_cover_min_sim_sum_empty_cases(kernels):
    packed = kernels.pack_covers([])
    assert kernels.cover_min_sim_sum(packed, [], TermVector({"x": 1})) == 0.0
    rng = random.Random(47)
    covers = [CoverSet([Document(1, random_vector(rng), 0.0)])]
    packed = kernels.pack_covers(covers)
    assert (
        kernels.cover_min_sim_sum(packed, covers, TermVector({"zzz": 2}))
        == 0.0
    )
