"""Result-set initialisation for new subscriptions (Section 3).

"When the system receives a DAS query, the query is firstly initialized
by traversing the document lists" — the store's recent matching
documents seed the result set.  The paper leaves the choice open; this
module ranks: of the newest ``scan_limit`` matches, the k with the best
``TRel(q, d) · T(d)`` (relevance × recency) seed the table.  That is
what ranked retrieval over the document lists gives, and it seeds the
result set with strong filtering thresholds — the replacement rule then
diversifies it as the stream flows.  DESIGN.md §6 records why ranking
is the only seeding (a recent-first pick and a greedy max-sum build were
measured and deleted).

The optimised engine and the naive oracle share this function, so their
states agree from the first published document onward.  The engine
ranks through its :class:`~repro.scoring.recency.CachedDecay` and the
oracle through a plain decay: ``T(d)`` is a pure function of the age,
so both read the same floats.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

from repro.scoring.recency import CachedDecay, ExponentialDecay
from repro.scoring.relevance import LanguageModelScorer
from repro.stream.document import Document
from repro.stream.document_store import DocumentStore


def select_initial_documents(
    store: DocumentStore,
    terms: Sequence[str],
    k: int,
    scan_limit: int,
    scorer: LanguageModelScorer = None,
    decay: Union[ExponentialDecay, CachedDecay] = None,
    now: float = 0.0,
) -> Tuple[List[Document], List[float]]:
    """Choose up to ``k`` seed documents, returned in arrival order.

    Returns ``(documents, trels)``: ``documents`` is sorted ascending by
    document id so the caller can admit them sequentially (each admit
    treats its document as the newest so far), and ``trels[i]`` is the
    ``TRel`` of ``documents[i]``.  Every candidate is scored in one
    :meth:`LanguageModelScorer.trels` pass, also when there are no more
    of them than ``k`` (then all of them seed, unranked).
    """
    candidates = store.recent_matching(terms, scan_limit)
    if not candidates:
        return [], []
    if scorer is None or decay is None:
        raise ValueError("initialisation needs a scorer and decay")
    trels = scorer.trels(terms, [document.vector for document in candidates])
    if len(candidates) <= k:
        return candidates[::-1], trels[::-1]
    recencies = _recencies(candidates, decay, now)
    keys = [trel * recency for trel, recency in zip(trels, recencies)]
    picked = sorted(range(len(candidates)), key=keys.__getitem__, reverse=True)
    picked = sorted(picked[:k], key=lambda index: candidates[index].doc_id)
    return (
        [candidates[index] for index in picked],
        [trels[index] for index in picked],
    )


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
