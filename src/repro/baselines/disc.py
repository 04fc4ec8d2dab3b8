"""DisC diversity over a sliding window (Appendix A.2).

Drosou & Pitoura's *Dissimilar-and-Covering* subset: given candidates
``P``, select ``S ⊆ P`` such that every candidate is similar (within
radius ``r`` of the angular distance metric) to some member of ``S`` and
no two members are similar to each other.  The paper extends DisC to
standing queries by re-running it per query over a sliding window of the
last ``|W_f|`` stream documents at a fixed refresh period.

Two construction algorithms are provided, as in the original work:

* ``BasicDisC`` — scan candidates in arrival order, select every
  candidate not yet covered (greedy maximal independent set);
* ``GreedyDisC`` — repeatedly select the uncovered candidate covering the
  most uncovered candidates (better quality, slower).

DisC has no ``k`` parameter; :func:`tune_radius` fine-tunes ``r`` so the
average result size matches a target, mirroring Section 8.4.1.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

from repro.core.events import Notification
from repro.core.query import DasQuery
from repro.errors import DuplicateQueryError, UnknownQueryError
from repro.stream.clock import SimulationClock
from repro.stream.document import Document
from repro.telemetry import Counters
from repro.text.vectors import angular_distance

ALGORITHMS = ("basic", "greedy")


def basic_disc(
    candidates: Sequence[Document], radius: float, counters: Optional[Counters] = None
) -> List[Document]:
    """BasicDisC: arrival-order greedy dissimilar-and-covering subset."""
    selected: List[Document] = []
    covered = [False] * len(candidates)
    for i, candidate in enumerate(candidates):
        if covered[i]:
            continue
        selected.append(candidate)
        covered[i] = True
        for j in range(len(candidates)):
            if not covered[j]:
                if counters is not None:
                    counters.sim_evaluations += 1
                if angular_distance(candidate.vector, candidates[j].vector) <= radius:
                    covered[j] = True
    return selected


def greedy_disc(
    candidates: Sequence[Document], radius: float, counters: Optional[Counters] = None
) -> List[Document]:
    """GreedyDisC: pick the uncovered candidate covering the most others."""
    n = len(candidates)
    if n == 0:
        return []
    # Neighbourhoods under the similarity radius (including self).
    neighbours: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        neighbours[i].append(i)
        for j in range(i + 1, n):
            if counters is not None:
                counters.sim_evaluations += 1
            if angular_distance(candidates[i].vector, candidates[j].vector) <= radius:
                neighbours[i].append(j)
                neighbours[j].append(i)
    uncovered = set(range(n))
    selected: List[Document] = []
    while uncovered:
        best = max(
            uncovered, key=lambda i: sum(1 for j in neighbours[i] if j in uncovered)
        )
        selected.append(candidates[best])
        uncovered -= set(neighbours[best])
    return selected


class DiscEngine:
    """Standing DisC queries over a sliding window of the text stream."""

    def __init__(
        self,
        radius: float = 0.35,
        window_size: int = 2000,
        refresh_every: int = 200,
        algorithm: str = "basic",
        max_candidates: int = 500,
        clock: Optional[SimulationClock] = None,
        counters: Optional[Counters] = None,
    ) -> None:
        if not 0.0 <= radius <= 1.0:
            raise ValueError(f"radius must be in [0, 1], got {radius}")
        if window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {window_size}")
        if refresh_every < 1:
            raise ValueError(f"refresh_every must be >= 1, got {refresh_every}")
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
            )
        self.radius = radius
        self.window_size = window_size
        self.refresh_every = refresh_every
        self.algorithm = algorithm
        self.max_candidates = max_candidates
        self._clock = clock if clock is not None else SimulationClock()
        self._window: Deque[Document] = deque(maxlen=window_size)
        self._queries: Dict[int, DasQuery] = {}
        self._results: Dict[int, List[Document]] = {}
        self._since_refresh = 0
        self.counters = counters if counters is not None else Counters()

    method_name = "DisC"

    @property
    def clock(self) -> SimulationClock:
        return self._clock

    @property
    def query_count(self) -> int:
        return len(self._queries)

    def subscribe(self, query: DasQuery) -> List[Document]:
        if query.query_id in self._queries:
            raise DuplicateQueryError(f"query {query.query_id} already subscribed")
        self._queries[query.query_id] = query
        self._results[query.query_id] = self._compute(query)
        self.counters.queries_subscribed += 1
        return list(self._results[query.query_id])

    def unsubscribe(self, query_id: int) -> None:
        if query_id not in self._queries:
            raise UnknownQueryError(f"query {query_id} is not subscribed")
        del self._queries[query_id]
        del self._results[query_id]

    def results(self, query_id: int) -> List[Document]:
        documents = self._results.get(query_id)
        if documents is None:
            raise UnknownQueryError(f"query {query_id} is not subscribed")
        return list(documents)

    def publish(self, document: Document) -> List[Notification]:
        """Slide the window; refresh all standing queries periodically."""
        if document.created_at > self._clock.now:
            self._clock.advance_to(document.created_at)
        self._window.append(document)
        self.counters.docs_published += 1
        self._since_refresh += 1
        if self._since_refresh < self.refresh_every:
            return []
        self._since_refresh = 0
        return self.refresh()

    def refresh(self) -> List[Notification]:
        """Re-run DisC for every query; emit notifications for new picks."""
        notifications: List[Notification] = []
        for query_id, query in self._queries.items():
            previous_ids = {d.doc_id for d in self._results[query_id]}
            fresh = self._compute(query)
            self._results[query_id] = fresh
            for document in fresh:
                if document.doc_id not in previous_ids:
                    notifications.append(
                        Notification(query_id, document, None)
                    )
        return notifications

    def _compute(self, query: DasQuery) -> List[Document]:
        self.counters.queries_evaluated += 1
        terms = query.terms
        candidates: List[Document] = [
            document
            for document in self._window
            if any(term in document.vector for term in terms)
        ]
        if len(candidates) > self.max_candidates:
            candidates = candidates[-self.max_candidates :]
        if self.algorithm == "basic":
            return basic_disc(candidates, self.radius, self.counters)
        return greedy_disc(candidates, self.radius, self.counters)


def tune_radius(
    candidates: Sequence[Document],
    target_size: int,
    algorithm: str = "greedy",
    iterations: int = 20,
) -> float:
    """Binary-search the radius ``r`` so DisC returns ~``target_size`` items.

    Mirrors the paper's Section 8.4.1 set-up ("we fine-tune the
    similarity threshold r such that the queries return 5 results on
    average").  Larger radii cover more, yielding fewer selections.
    """
    if target_size < 1:
        raise ValueError(f"target_size must be >= 1, got {target_size}")
    build = basic_disc if algorithm == "basic" else greedy_disc
    low, high = 0.0, 1.0
    best_radius = 0.5
    best_gap = float("inf")
    for _ in range(iterations):
        mid = (low + high) / 2.0
        size = len(build(candidates, mid))
        gap = abs(size - target_size)
        if gap < best_gap:
            best_gap = gap
            best_radius = mid
        if size > target_size:
            low = mid  # too many picks: widen the coverage radius
        else:
            high = mid
    return best_radius
