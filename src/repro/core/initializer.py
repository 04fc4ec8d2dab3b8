"""Result-set initialisation for new subscriptions (Section 3).

"When the system receives a DAS query, the query is firstly initialized
by traversing the document lists" — the store's recent matching
documents seed the result set.  Three strategies are provided:

``relevant`` (default)
    The k candidates with the best ``α · R(q, d)`` (relevance × recency)
    scores.  This is what ranked retrieval over the document lists gives
    and seeds the result set with strong filtering thresholds — the
    replacement rule then diversifies it as the stream flows.

``recent``
    The k most recent matching documents, in arrival order.  Cheapest;
    thresholds start weak, so early match rates are high.

``greedy``
    Greedy max-sum construction: repeatedly add the candidate with the
    best marginal ``α·R + (2-2α)/(k-1)·Σ d(·, selected)`` contribution.
    Matches the DR objective best at subscription time at O(k·m)
    similarity cost over m candidates (m is capped at ``4k``).

All strategies are shared by the optimised engine and the naive oracle,
so their states agree from the first published document onward.  The
engine ranks through its :class:`~repro.scoring.recency.CachedDecay`
and the oracle through a plain decay: ``T(d)`` is a pure function of
the age, so both read the same floats.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.scoring.diversity import diversity_coefficient
from repro.scoring.recency import CachedDecay, ExponentialDecay
from repro.scoring.relevance import LanguageModelScorer
from repro.stream.document import Document
from repro.stream.document_store import DocumentStore
from repro.text.vectors import dissimilarity

INIT_STRATEGIES = ("relevant", "recent", "greedy")
DEFAULT_INIT_STRATEGY = "relevant"


def select_initial_documents(
    store: DocumentStore,
    terms: Sequence[str],
    k: int,
    scan_limit: int,
    strategy: str = DEFAULT_INIT_STRATEGY,
    scorer: LanguageModelScorer = None,
    decay: Union[ExponentialDecay, CachedDecay] = None,
    now: float = 0.0,
    alpha: float = 0.3,
    with_trels: bool = False,
) -> Union[List[Document], Tuple[List[Document], List[Optional[float]]]]:
    """Choose up to ``k`` seed documents, returned in arrival order.

    The returned list is sorted ascending by document id so the caller
    can admit them sequentially (each admit treats its document as the
    newest so far).  With ``with_trels`` the return value is
    ``(documents, trels)``: ``trels[i]`` is the ``TRel`` that
    ``documents[i]`` was ranked by, or None where nothing was scored
    (``recent``, or no more candidates than ``k``).  Candidates are
    scored in one :meth:`LanguageModelScorer.trels` pass.
    """
    if strategy not in INIT_STRATEGIES:
        raise ValueError(
            f"unknown init strategy {strategy!r}; expected one of {INIT_STRATEGIES}"
        )
    candidates = store.recent_matching(terms, scan_limit)
    if strategy == "recent" or len(candidates) <= k:
        documents = candidates[:k][::-1]
        return (documents, [None] * len(documents)) if with_trels else documents
    if scorer is None or decay is None:
        raise ValueError(f"{strategy} initialisation needs a scorer and decay")
    trels = scorer.trels(terms, [document.vector for document in candidates])
    recencies = _recencies(candidates, decay, now)
    keys = [trel * recency for trel, recency in zip(trels, recencies)]
    picked = sorted(range(len(candidates)), key=keys.__getitem__, reverse=True)
    if strategy == "relevant":
        picked = picked[:k]
    else:
        # Pre-truncate by relevance so the O(k·m) similarity work stays
        # bounded even with large scan limits.
        if len(candidates) > 4 * k:
            kept = picked[: 4 * k]
            candidates = [candidates[index] for index in kept]
            trels = [trels[index] for index in kept]
            recencies = [recencies[index] for index in kept]
        picked = _greedy_max_sum(candidates, trels, recencies, k, alpha)
    picked.sort(key=lambda index: candidates[index].doc_id)
    documents = [candidates[index] for index in picked]
    if with_trels:
        return documents, [trels[index] for index in picked]
    return documents


def _recencies(
    documents: Sequence[Document],
    decay: Union[ExponentialDecay, CachedDecay],
    now: float,
) -> List[float]:
    """``T(d)`` of each document at ``now``.

    Reads the decay's ``powers`` memo first when it has one (the
    engine's :class:`~repro.scoring.recency.CachedDecay`) and calls
    ``at_age`` only on a miss; a plain decay computes every power.
    """
    powers = getattr(decay, "powers", {})
    at_age = decay.at_age
    recencies = []
    for document in documents:
        age = now - document.created_at
        recency = powers.get(age)
        if recency is None:
            recency = at_age(age)
        recencies.append(recency)
    return recencies


def _greedy_max_sum(
    candidates: Sequence[Document],
    trels: Sequence[float],
    recencies: Sequence[float],
    k: int,
    alpha: float,
) -> List[int]:
    """Indices into ``candidates`` of the greedy max-sum selection."""
    coeff = diversity_coefficient(alpha, k)
    relevances = [
        alpha * trel * recency for trel, recency in zip(trels, recencies)
    ]
    selected: List[int] = []
    remaining = list(range(len(candidates)))
    # Marginal diversity gain of each remaining candidate w.r.t. the
    # selection so far, updated incrementally as documents are picked.
    diversity_gain = [0.0] * len(candidates)
    while remaining and len(selected) < k:
        best_position = 0
        best_value = float("-inf")
        for position, index in enumerate(remaining):
            value = relevances[index] + coeff * diversity_gain[index]
            if value > best_value:
                best_value = value
                best_position = position
        picked = remaining.pop(best_position)
        selected.append(picked)
        for index in remaining:
            diversity_gain[index] += dissimilarity(
                candidates[index].vector, candidates[picked].vector
            )
    return selected
