"""The cosine kernel against the scalar ground truth.

Every cosine the engine evaluates at stream rate goes through
:func:`~repro.text.vectors.cached_cosines`: a result set's similarities
to its rows (:meth:`QueryResultSet.similarities_to` /
:meth:`~QueryResultSet.similarities_to_kept`), the R2 tail of the
Lemma 6 sum (:meth:`~QueryResultSet.similarity_sum`) and the per-cover
minima of the group bound (:func:`block_similarity_lower_bound`).  Each
is checked here against :func:`~repro.text.vectors.cosine_similarity`
with ``==``: there is one kernel, so the floats are the scalar ones.
"""

from __future__ import annotations

import random

import pytest

from repro.core.agg_weights import MemoryBudget
from repro.core.blocks import PostingsBlock
from repro.core.filtering import block_similarity_lower_bound
from repro.core.mcs import CoverSet
from repro.core.result_set import QueryResultSet
from repro.stream.document import Document
from repro.text.vectors import SimCache, TermVector, cosine_similarity
from tests.conftest import table_rows


def random_vector(rng: random.Random, pool: int = 40, terms: int = 6):
    n = rng.randint(1, terms)
    tf = {f"t{rng.randrange(pool)}": rng.randint(1, 4) for _ in range(n)}
    return TermVector(tf)


def make_result_set(rng, n, first_id=0, budget=None, track_aw=False):
    """A table of ``k = max(1, n)`` holding ``n`` random rows."""
    result_set = QueryResultSet(
        max(1, n), budget=budget, track_aggregated_weights=track_aw
    )
    for i in range(n):
        document = Document(first_id + i, random_vector(rng), float(i))
        result_set.admit(document, rng.random())
    return result_set


def cosines(probe, documents):
    return [cosine_similarity(probe, d.vector) for d in documents]


def left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


# -- result-set similarities ------------------------------------------------


def test_similarities_to_matches_cosine():
    rng = random.Random(7)
    for trial in range(20):
        result_set = make_result_set(
            rng, rng.randint(0, 8), first_id=100 * trial
        )
        probe = random_vector(rng)
        expected = cosines(probe, result_set.documents())
        assert result_set.similarities_to(probe) == expected
        assert result_set.similarities_to_kept(probe) == expected[1:]
        # Served from the publish-scoped cache: the same floats.
        cache = SimCache()
        for _ in range(2):
            assert result_set.similarities_to(probe, cache) == expected


def test_tail_similarity_sum_matches_cosine():
    """The R2 tail with no summary (every row a cosine) and with some
    rows AW-resident (only the rest are cosines, added after the dot)."""
    rng = random.Random(11)
    resident_seen = direct_seen = 0
    for trial in range(40):
        n = rng.randint(1, 8)
        # Without a summary.
        result_set = make_result_set(rng, n, first_id=100 * trial)
        probe = random_vector(rng)
        tail = cosines(probe, result_set.documents()[1:])
        assert result_set.similarity_sum(probe) == (
            left_to_right(tail), len(tail), 0
        )
        # With a summary under a budget that fits only some rows.
        budget = MemoryBudget(rng.randint(0, 12))
        result_set = make_result_set(
            rng, n, first_id=100 * trial + 50, budget=budget, track_aw=True
        )
        rows = table_rows(result_set)[1:]
        direct = [e.document for e in rows if not e.aw_resident]
        resident_seen += len(rows) - len(direct)
        direct_seen += len(direct)
        total, count, aw_dots = result_set.similarity_sum(probe)
        assert (count, aw_dots) == (len(direct), 1)
        assert total == result_set.aggregated_weights.similarity_sum(
            probe
        ) + left_to_right(cosines(probe, direct))
        assert total == pytest.approx(
            left_to_right(cosines(probe, result_set.documents()[1:]))
        )
    assert resident_seen and direct_seen


def test_disjoint_probe_yields_zeros():
    rng = random.Random(13)
    result_set = make_result_set(rng, 5)
    probe = TermVector({"unseen-term": 3})
    assert result_set.similarities_to(probe) == [0.0] * 5
    assert result_set.similarity_sum(probe) == (0.0, 4, 0)


def test_empty_probe_and_empty_entries():
    rng = random.Random(17)
    result_set = make_result_set(rng, 3)
    empty = TermVector({})
    assert result_set.similarities_to(empty) == [0.0] * 3
    no_entries = QueryResultSet(2)
    assert no_entries.similarities_to(empty) == []
    assert no_entries.similarities_to_kept(empty) == []
    assert no_entries.similarity_sum(empty) == (0.0, 0, 0)


# -- group-bound cover minima ---------------------------------------------


def block_with(covers):
    block = PostingsBlock()
    block.mcs_sets = covers
    return block


def test_cover_min_sim_sum_matches_cosine():
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
        probe = random_vector(rng)
        expected = left_to_right(
            min(cosines(probe, cover.documents)) for cover in covers
        )
        block = block_with(covers)
        for cache in (None, SimCache()):
            assert block_similarity_lower_bound(
                block, probe, sim_cache=cache
            ) == expected


def test_cover_min_sim_sum_empty_cases():
    probe = TermVector({"x": 1})
    for covers in (None, []):
        assert block_similarity_lower_bound(block_with(covers), probe) == 0.0
    rng = random.Random(47)
    covers = [CoverSet([Document(1, random_vector(rng), 0.0)])]
    assert block_similarity_lower_bound(
        block_with(covers), TermVector({"zzz": 2})
    ) == 0.0
