"""Filtering conditions and bounds (Sections 4-5, Lemmas 2-4 and 7).

Free functions over block summaries and precomputed per-document values,
so both the engine and the test-suite (which checks every bound against
its exact counterpart) can call them directly.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import GroupBoundMode
from repro.core.blocks import PostingsBlock
from repro.core.mcs import min_similarity_floor
from repro.scoring.diversity import diversity_coefficient
from repro.scoring.recency import ExponentialDecay
from repro.text.vectors import TermVector, cached_cosines

#: Strict-improvement guard: a replacement must beat the old contribution
#: by more than this margin.  Mathematical ties (common with duplicated
#: documents) then resolve identically across engines despite different
#: floating-point evaluation orders.
TIE_EPSILON = 1e-9

_NEG_INF = float("-inf")


def accepts(dr_new: float, dr_oldest: float) -> bool:
    """Definition 2/3: the new document wins only on strict improvement."""
    return dr_new > dr_oldest + TIE_EPSILON


def quick_relevance_bound(
    trel_new: float,
    alpha: float,
    k: int = 2,
    floor: float = 0.0,
    coeff: Optional[float] = None,
) -> float:
    """Upper bound on ``dr_q(d_n)`` that needs no Lemma 6 dot product.

    ``floor`` is any lower bound on ``Σ Sim(d_n, d)`` over ``q.R \\ {d_e}``;
    the engine passes the one addend of Lemma 6 owned by the keyword
    whose posting reached the query
    (:meth:`QueryResultSet.similarity_floor`):

        dr_q(d_n) <= α·TRel(q, d_n) + (2-2α)/(k-1) · ((k-1) - floor)

    With ``floor = 0`` every dissimilarity is at its maximum 1 and this
    is Appendix A.1's ``α·TRel + 2(1-α)``, whatever ``k >= 2`` is.  The
    expression has the shape of the exact ``dr_q(d_n)`` the engine
    computes from the full sum, and every step of it is monotone under
    IEEE rounding, so ``floor <= sum`` as floats gives ``bound >=
    dr_q(d_n)`` as floats: the bound never rejects what the full
    evaluation would accept.
    """
    if coeff is None:
        coeff = diversity_coefficient(alpha, k)
    return alpha * trel_new + coeff * ((k - 1) - floor)


def threshold_from_summaries(
    dtrel_min: float,
    trel_max_de: float,
    recency: float,
    alpha: float,
) -> float:
    """The Eq. 12 threshold arithmetic over bare scalars."""
    return dtrel_min - alpha * trel_max_de * (1.0 - recency)


def block_threshold_lower_bound(
    block: PostingsBlock,
    decay: ExponentialDecay,
    now: float,
    alpha: float,
) -> float:
    """``FT̃_b`` (Eq. 12, Lemma 2) from the block's O(1) summaries.

    The threshold covers the block's *filled* members; warm-up members
    admit everything and are evaluated individually by the engine.  A
    block with no filled member has no threshold (-inf).
    """
    if block.dtrel_min == _NEG_INF:
        return _NEG_INF
    recency = decay.at(block.earliest_de, now)
    return threshold_from_summaries(
        block.dtrel_min, block.trel_max_de, recency, alpha
    )


def block_trel_upper_bound(active_ps_values: Sequence[float]) -> float:
    """``TRel̃_max(b, d_n)`` (Eq. 18, Lemma 4).

    ``active_ps_values`` are the ``PS(d_n, w_i)`` of the document terms
    whose postings cursor has not yet passed the block.  Because every
    ``PS`` is at most 1, the product over a query's keywords cannot
    exceed any single factor, hence the maximum single factor bounds the
    block's best text relevance.
    """
    return max(active_ps_values) if active_ps_values else 0.0


def block_similarity_lower_bound(
    block: PostingsBlock,
    vector: TermVector,
    term: str,
    k: int,
    mode: GroupBoundMode,
    sim_cache=None,
) -> float:
    """``Sim̃_min(b, d_n)`` (Eq. 19) from the block's MCS summary.

    ``PAPER`` follows Eq. 19 verbatim — ``k - |S|`` residual slots, each
    floored at ``minSim(U_w(b), d_n)`` (Eq. 20).  ``STRICT`` assumes only
    ``k - 1 - |S|`` residual slots at similarity 0, which is provably a
    lower bound of the true minimum (see DESIGN.md §2).

    ``sim_cache`` is the engine's publish-scoped cosine memo for
    ``vector``: covers of different blocks hold the same stored
    documents.
    """
    covers = block.mcs_sets
    if not covers:
        if mode is GroupBoundMode.STRICT:
            return 0.0
        floor = min_similarity_floor(
            block.universe_min_tf, block.universe_max_norm, term, vector
        )
        return floor * k if block.mcs_sets is not None else 0.0
    total = 0.0
    for cover in covers:
        total += min(cached_cosines(vector, cover.documents, sim_cache))
    if mode is GroupBoundMode.STRICT:
        residual_slots = (k - 1) - len(covers)
        floor = 0.0
    else:
        residual_slots = k - len(covers)
        floor = min_similarity_floor(
            block.universe_min_tf, block.universe_max_norm, term, vector
        )
    if residual_slots > 0 and floor > 0.0:
        total += floor * residual_slots
    return total


def group_filters_out(
    trel_upper: float,
    sim_lower: float,
    threshold_lower: float,
    alpha: float,
    k: int,
    coeff: Optional[float] = None,
) -> bool:
    """Lemma 7: the whole block can be skipped for this document.

    ``coeff`` is the diversity coefficient ``(2-2α)/(k-1)``; pass it to
    avoid recomputing the loop-invariant value on every check.
    """
    if coeff is None:
        coeff = diversity_coefficient(alpha, k)
    upper = alpha * trel_upper + coeff * ((k - 1) - sim_lower)
    return upper <= threshold_lower


#: Diagonal of the unit square — the maximum possible distance between a
#: query location and a document location, used to normalise proximity.
UNIT_DIAGONAL = 2.0 ** 0.5


def spatial_proximity(
    query_location: Optional[Sequence[float]],
    doc_location: Optional[Sequence[float]],
) -> float:
    """Distance-weighted proximity in ``[0, 1]`` over the unit square.

    ``1 - dist / sqrt(2)``: 1 at co-location, 0 at opposite corners.  A
    document without a location contributes zero proximity (it can still
    win on text relevance alone).
    """
    if query_location is None or doc_location is None:
        return 0.0
    dx = query_location[0] - doc_location[0]
    dy = query_location[1] - doc_location[1]
    return 1.0 - (dx * dx + dy * dy) ** 0.5 / UNIT_DIAGONAL


def spatial_score(
    proximity: float, trel: float, spatial_weight: float
) -> float:
    """The composed spatial-keyword score ``w·prox + (1-w)·TRel``.

    One shared expression so the engine-side grid path and the
    brute-force oracle evaluate the identical float arithmetic."""
    return spatial_weight * proximity + (1.0 - spatial_weight) * trel


def cell_proximity_upper_bound(
    cell_bounds: Sequence[float],
    doc_location: Optional[Sequence[float]],
) -> float:
    """Upper bound on :func:`spatial_proximity` over a grid cell.

    ``cell_bounds`` is ``(x0, y0, x1, y1)``; the bound uses the minimum
    distance from the document location to the cell rectangle, so it
    dominates the proximity of every query located inside the cell.
    """
    if doc_location is None:
        return 0.0
    x0, y0, x1, y1 = cell_bounds
    x, y = doc_location
    dx = max(x0 - x, 0.0, x - x1)
    dy = max(y0 - y, 0.0, y - y1)
    return 1.0 - (dx * dx + dy * dy) ** 0.5 / UNIT_DIAGONAL


def spatial_cell_filters_out(
    proximity_upper: float,
    trel_upper: float,
    cell_threshold: float,
    spatial_weight: float,
) -> bool:
    """Eq. 12-style skip discipline for one grid cell.

    ``cell_threshold`` is the minimum worst-member score over the cell's
    *full* queries (``-inf`` while any is filling).  Admission demands a
    strict ``score > worst + TIE_EPSILON`` improvement and the composed
    upper bound dominates every admissible score in the cell, so a
    positive verdict can never drop a qualifying query."""
    upper = spatial_score(proximity_upper, trel_upper, spatial_weight)
    return upper <= cell_threshold + TIE_EPSILON


def exact_group_threshold(
    result_sets,
    query_ids: Sequence[int],
    decay: ExponentialDecay,
    now: float,
    alpha: float,
) -> float:
    """``min{dr_{q_i}(q_i.d_e)}`` — the exact value Lemma 2 lower-bounds.

    Reference implementation used by tests; returns -inf if any member is
    unfilled.
    """
    threshold = float("inf")
    for query_id in query_ids:
        result_set = result_sets[query_id]
        if not result_set.is_full:
            return _NEG_INF
        value = result_set.dr_oldest(now, decay, alpha)
        if value < threshold:
            threshold = value
    return threshold
