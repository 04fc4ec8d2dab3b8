"""The Diversity-Aware Top-k Subscription query (Definition 2).

A DAS query is the pair ``<id, ψ>`` of a query id and keyword set; its
result set lives in :mod:`repro.core.result_set` and is owned by the
engine that the query is subscribed to.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.errors import ConfigurationError, EmptyQueryError
from repro.text.vectors import intern_term


class DasQuery:
    """Immutable subscription: an id plus a deduplicated keyword tuple.

    Keywords that are exactly ``str`` are interned, so a query shares its
    term objects with the stored documents and the inverted file's keys
    (see :class:`repro.text.vectors.TermVector`).

    Strategy modes (DESIGN.md §16) attach two optional options:
    ``location`` — an ``(x, y)`` pair in the unit square, required by the
    spatial-keyword mode — and ``window`` — a per-query count-based
    window, capped by the engine at ``config.window_size``.
    """

    __slots__ = ("query_id", "terms", "location", "window")

    def __init__(
        self,
        query_id: int,
        keywords: Iterable[str],
        location: Optional[Tuple[float, float]] = None,
        window: Optional[int] = None,
    ) -> None:
        terms: Tuple[str, ...] = tuple(sorted(set(map(intern_term, keywords))))
        if not terms:
            raise EmptyQueryError(f"query {query_id} has no keywords")
        if any(not term for term in terms):
            raise EmptyQueryError(f"query {query_id} contains an empty keyword")
        if location is not None:
            try:
                x, y = location
                location = (float(x), float(y))
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"query {query_id} location must be an (x, y) pair, "
                    f"got {location!r}"
                ) from None
        if window is not None:
            if isinstance(window, bool) or not isinstance(window, int):
                raise ConfigurationError(
                    f"query {query_id} window must be an integer, "
                    f"got {window!r}"
                )
            if window < 1:
                raise ConfigurationError(
                    f"query {query_id} window must be >= 1, got {window}"
                )
        self.query_id = query_id
        self.terms = terms
        self.location = location
        self.window = window

    @classmethod
    def from_text(cls, query_id: int, text: str) -> "DasQuery":
        """Tokenise free text into a subscription."""
        from repro.text.tokenizer import tokenize

        return cls(query_id, tokenize(text))

    def matches(self, terms: Iterable[str]) -> bool:
        """True when the document shares at least one keyword (Def. 2 (1))."""
        own = self.terms
        return any(term in own for term in terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DasQuery):
            return NotImplemented
        return self.query_id == other.query_id and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.query_id, self.terms))

    def __repr__(self) -> str:
        extras = ""
        if self.location is not None:
            extras += f", location={self.location}"
        if self.window is not None:
            extras += f", window={self.window}"
        return f"DasQuery(id={self.query_id}, terms={list(self.terms)}{extras})"
