"""MSInc: incremental max-sum streaming diversification (Appendix A.3).

Minack et al.'s approach maintains, per query, a set ``S`` of at most
``k`` items and processes each arriving item incrementally: while the
set is under-full the item is added; otherwise the algorithm considers
every exchange ``S ∪ {d_n} \\ {x}`` and keeps the variant with the best
max-sum objective (the same α-blend of relevance+recency and pairwise
dissimilarity as the DAS score, so results are comparable).

Like DisC it was designed for a *single* query: every subscription pays
O(k²) per matching document with no shared work, which is exactly why
Figure 9 shows it an order of magnitude slower than GIFilter.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import EngineConfig
from repro.core.events import Notification
from repro.core.filtering import TIE_EPSILON
from repro.core.query import DasQuery
from repro.errors import DuplicateQueryError, UnknownQueryError
from repro.scoring.diversity import dr_score
from repro.scoring.recency import ExponentialDecay
from repro.scoring.relevance import LanguageModelScorer
from repro.stream.clock import SimulationClock
from repro.stream.document import Document
from repro.telemetry import Counters
from repro.text.collection_stats import CollectionStatistics


class MsIncEngine:
    """Per-query incremental max-sum diversification over the stream."""

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        clock: Optional[SimulationClock] = None,
        stats: Optional[CollectionStatistics] = None,
        counters: Optional[Counters] = None,
    ) -> None:
        self._config = config if config is not None else EngineConfig()
        self._clock = clock if clock is not None else SimulationClock()
        self._stats = stats if stats is not None else CollectionStatistics()
        self._scorer = LanguageModelScorer(
            self._stats, self._config.smoothing_lambda
        )
        self._decay = ExponentialDecay(self._config.decay_base)
        self._queries: Dict[int, DasQuery] = {}
        self._results: Dict[int, List[Document]] = {}
        self.counters = counters if counters is not None else Counters()

    method_name = "MSInc"

    @property
    def config(self) -> EngineConfig:
        return self._config

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
        self._results[query.query_id] = []
        self.counters.queries_subscribed += 1
        return []

    def unsubscribe(self, query_id: int) -> None:
        if query_id not in self._queries:
            raise UnknownQueryError(f"query {query_id} is not subscribed")
        del self._queries[query_id]
        del self._results[query_id]

    def results(self, query_id: int) -> List[Document]:
        documents = self._results.get(query_id)
        if documents is None:
            raise UnknownQueryError(f"query {query_id} is not subscribed")
        return sorted(documents, key=lambda d: d.doc_id, reverse=True)

    def current_dr(self, query_id: int) -> float:
        query = self._queries[query_id]
        return dr_score(
            query.terms,
            self._results[query_id],
            self._scorer,
            self._decay,
            self._clock.now,
            self._config.alpha,
            self._config.k,
        )

    def publish(self, document: Document) -> List[Notification]:
        if document.created_at > self._clock.now:
            self._clock.advance_to(document.created_at)
        self._stats.add(document.vector)
        self.counters.docs_published += 1
        notifications: List[Notification] = []
        now = self._clock.now
        config = self._config
        vector = document.vector
        for query_id, query in self._queries.items():
            if not any(term in vector for term in query.terms):
                continue
            self.counters.queries_evaluated += 1
            current = self._results[query_id]
            if len(current) < config.k:
                current.append(document)
                self.counters.matches += 1
                notifications.append(Notification(query_id, document, None))
                continue
            objective = dr_score(
                query.terms, current, self._scorer, self._decay, now,
                config.alpha, config.k,
            )
            best_objective = objective
            best_out: Optional[int] = None
            extended = current + [document]
            for out_index in range(len(current)):
                variant = [
                    d for i, d in enumerate(extended) if i != out_index
                ]
                value = dr_score(
                    query.terms, variant, self._scorer, self._decay, now,
                    config.alpha, config.k,
                )
                if value > best_objective + TIE_EPSILON:
                    best_objective = value
                    best_out = out_index
            if best_out is not None:
                removed = current[best_out]
                current.pop(best_out)
                current.append(document)
                self.counters.matches += 1
                notifications.append(
                    Notification(query_id, document, removed)
                )
        return notifications
