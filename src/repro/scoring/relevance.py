"""Language-model text relevance (Eq. 3 and the ``PS`` formula).

``PS(d, w)`` is the Jelinek-Mercer smoothed probability of term ``w``
under the document's language model; ``TRel(q, d)`` is the product over
the query keywords.  The scorer holds a reference to the shared, evolving
:class:`~repro.text.collection_stats.CollectionStatistics`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.text.collection_stats import CollectionStatistics
from repro.text.vectors import TermVector


class LanguageModelScorer:
    """Smoothed language-model scorer shared by all queries of an engine."""

    __slots__ = ("_stats", "_lambda")

    def __init__(self, stats: CollectionStatistics, smoothing_lambda: float) -> None:
        if not 0.0 <= smoothing_lambda <= 1.0:
            raise ValueError(
                f"smoothing_lambda must be in [0, 1], got {smoothing_lambda}"
            )
        self._stats = stats
        self._lambda = smoothing_lambda

    @property
    def stats(self) -> CollectionStatistics:
        return self._stats

    @property
    def smoothing_lambda(self) -> float:
        return self._lambda

    def ps(self, vector: TermVector, term: str) -> float:
        """``PS(d.v_d, w)`` — smoothed term probability."""
        background = self._lambda * self._stats.probability(term)
        if vector.length == 0:
            return background
        return (
            (1.0 - self._lambda) * vector.frequency(term) / vector.length
            + background
        )

    def background(self, term: str) -> float:
        """``PS`` for a document that does not contain ``term``."""
        return self._lambda * self._stats.probability(term)

    def trel(self, query_terms: Iterable[str], vector: TermVector) -> float:
        """``TRel(q, d)`` — product of ``PS`` over the query keywords."""
        score = 1.0
        for term in query_terms:
            score *= self.ps(vector, term)
        return score

    def trels(
        self, query_terms: Iterable[str], vectors: Iterable[TermVector]
    ) -> List[float]:
        """``TRel(q, d)`` of many documents under one query.

        Each keyword's background is computed once per call instead of
        once per (document, keyword); every score is the same float
        expression in the same product order as :meth:`trel`, so
        ``trels(terms, vectors)[i] == trel(terms, vectors[i])`` exactly.
        A keyword absent from the document multiplies its background
        directly: ``(1-λ)·0/len + b == b`` bit for bit, at every λ (and
        an empty document contains no keyword).
        """
        keywords = [(term, self.background(term)) for term in query_terms]
        foreground = 1.0 - self._lambda
        scores = []
        for vector in vectors:
            length = vector.length
            frequency = vector._tf.get
            score = 1.0
            for term, background in keywords:
                count = frequency(term)
                if count is None:
                    score *= background
                else:
                    score *= foreground * count / length + background
            scores.append(score)
        return scores

    def trel_from_ps(
        self,
        query_terms: Iterable[str],
        ps_cache: Dict[str, float],
        vector: TermVector,
    ) -> float:
        """``TRel`` reusing per-document ``PS`` values computed earlier.

        ``ps_cache`` holds the document's ``PS`` per term, seeded with
        the terms *present in the document*; a query keyword missing
        from it is absent from the document, where ``PS`` is exactly the
        background probability (``(1-λ)·0/len + b == b`` bit for bit, so
        ``vector`` is never consulted), and is memoised too (many queries
        name the same absent keyword).  This is the hot path of document
        processing: each ``PS`` is computed once per document and reused
        across every candidate query.
        """
        score = 1.0
        for term in query_terms:
            value = ps_cache.get(term)
            if value is None:
                value = ps_cache[term] = self.background(term)
            score *= value
        return score
