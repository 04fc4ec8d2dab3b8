"""Evolving collection statistics for Jelinek-Mercer smoothing.

``PS(d, w)`` (the formula below Eq. 3) mixes a document's maximum-
likelihood term probability with the *collection* probability
``Num(Coll, w) / |Coll|``.  On a stream the collection grows with every
published document, so the statistics are maintained incrementally here
and shared by every engine in an experiment (keeping their scores
comparable).

Unseen terms get a floor probability of ``1 / (|Coll| + 1)`` so that the
product in ``TRel`` (Eq. 3) never collapses to exactly zero for queries
whose keywords have not been observed yet — the paper's corpus-scale
statistics make this a non-issue, but small synthetic runs need it.
"""

from __future__ import annotations

from typing import Dict

from repro.text.vectors import TermVector


class CollectionStatistics:
    """Term and token counts over every document seen so far."""

    def __init__(self) -> None:
        self._term_counts: Dict[str, int] = {}
        self._total_tokens: int = 0
        self._total_documents: int = 0

    @property
    def total_tokens(self) -> int:
        """``|Coll|`` — total tokens across all observed documents."""
        return self._total_tokens

    @property
    def total_documents(self) -> int:
        return self._total_documents

    @property
    def distinct_terms(self) -> int:
        return len(self._term_counts)

    def add(self, vector: TermVector) -> None:
        """Fold one document's term frequencies into the collection."""
        counts = self._term_counts
        for term, count in vector.items():
            counts[term] = counts.get(term, 0) + count
        self._total_tokens += vector.length
        self._total_documents += 1

    def term_count(self, term: str) -> int:
        """``Num(Coll, w)`` — occurrences of ``term`` in the collection."""
        return self._term_counts.get(term, 0)

    def probability(self, term: str) -> float:
        """Collection probability with an unseen-term floor.

        Returns ``Num(Coll, w) / |Coll|`` for observed terms, and
        ``1 / (|Coll| + 1)`` for unobserved ones (also the value before
        any document arrives).
        """
        count = self._term_counts.get(term, 0)
        if count == 0 or self._total_tokens == 0:
            return 1.0 / (self._total_tokens + 1)
        return count / self._total_tokens

    def snapshot(self) -> "CollectionStatistics":
        """Deep copy, useful for freezing scores in tests."""
        clone = CollectionStatistics()
        clone._term_counts = dict(self._term_counts)
        clone._total_tokens = self._total_tokens
        clone._total_documents = self._total_documents
        return clone
