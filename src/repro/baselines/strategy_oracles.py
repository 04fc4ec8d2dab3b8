"""Brute-force oracles for the strategy modes (DESIGN.md §16).

Same role as :class:`repro.baselines.naive.NaiveEngine` plays for the
decay mode: hopeless at scale, correct by construction.  The optimised
strategy paths inside :class:`~repro.core.engine.DasEngine` — the
incremental promotion-on-expiry bookkeeping of the window mode, the grid
pruning of the spatial mode — must produce byte-identical result sets to
a full re-rank over all live candidates.

Both oracles intentionally share the *scoring* helpers with the engine
(:func:`repro.core.filtering.spatial_score` and friends,
``LanguageModelScorer.trel``) so any divergence the differential tier
catches is in the maintenance logic under test, never float noise.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.config import EngineConfig
from repro.core.events import Notification
from repro.core.filtering import (
    TIE_EPSILON,
    spatial_proximity,
    spatial_score,
)
from repro.core.query import DasQuery
from repro.core.strategies import effective_window
from repro.errors import (
    ConfigurationError,
    DuplicateQueryError,
    UnknownQueryError,
)
from repro.scoring.relevance import LanguageModelScorer
from repro.stream.clock import SimulationClock, require_not_before
from repro.stream.document import Document
from repro.stream.document_store import DocumentStore
from repro.telemetry import Counters
from repro.text.collection_stats import CollectionStatistics


class _OracleBase:
    """Shared plumbing: clock, statistics, store, counters."""

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        clock: Optional[SimulationClock] = None,
        stats: Optional[CollectionStatistics] = None,
        store: Optional[DocumentStore] = None,
        counters: Optional[Counters] = None,
    ) -> None:
        self._config = config if config is not None else EngineConfig()
        self._clock = clock if clock is not None else SimulationClock()
        self._stats = stats if stats is not None else CollectionStatistics()
        self._scorer = LanguageModelScorer(
            self._stats, self._config.smoothing_lambda
        )
        self._store = store if store is not None else DocumentStore()
        self._queries: Dict[int, DasQuery] = {}
        self.counters = counters if counters is not None else Counters()

    @property
    def config(self) -> EngineConfig:
        return self._config

    @property
    def clock(self) -> SimulationClock:
        return self._clock

    @property
    def store(self) -> DocumentStore:
        return self._store

    @property
    def query_count(self) -> int:
        return len(self._queries)

    def _ingest(self, document: Document) -> None:
        require_not_before(self._clock, document)
        if document.created_at > self._clock.now:
            self._clock.advance_to(document.created_at)
        self._stats.add(document.vector)
        self._store.add(document)
        self.counters.docs_published += 1


class WindowOracle(_OracleBase):
    """Reference sliding-window engine: re-rank live candidates on read.

    Scores are cached at first encounter exactly like the engine path —
    the re-rank is over *which* candidates are alive and how they order,
    never a re-score — so byte-identity is meaningful.
    """

    method_name = "WindowOracle"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._seq = 0
        #: (seq, doc_id), oldest first, at most ``window_size`` entries.
        self._live = deque()
        #: query id -> {doc_id: (score, seq)} of every encountered match.
        self._scores: Dict[int, Dict[int, Tuple[float, int]]] = {}

    def subscribe(self, query: DasQuery) -> List[Document]:
        if query.query_id in self._queries:
            raise DuplicateQueryError(
                f"query {query.query_id} already subscribed"
            )
        window = effective_window(query, self._config.window_size)
        horizon = self._seq - window
        cached: Dict[int, Tuple[float, int]] = {}
        for seq, doc_id in self._live:
            if seq <= horizon:
                continue
            document = self._store.get(doc_id)
            if any(term in document.vector for term in query.terms):
                cached[doc_id] = (
                    self._scorer.trel(query.terms, document.vector),
                    seq,
                )
        self._queries[query.query_id] = query
        self._scores[query.query_id] = cached
        self.counters.queries_subscribed += 1
        return self.results(query.query_id)

    def unsubscribe(self, query_id: int) -> None:
        if query_id not in self._queries:
            raise UnknownQueryError(f"query {query_id} is not subscribed")
        del self._queries[query_id]
        del self._scores[query_id]

    def publish(self, document: Document) -> List[Notification]:
        self._ingest(document)
        self._seq += 1
        seq = self._seq
        self._live.append((seq, document.doc_id))
        while len(self._live) > self._config.window_size:
            self._live.popleft()
        vector = document.vector
        notifications: List[Notification] = []
        k = self._config.k
        for query_id, query in self._queries.items():
            cached = self._scores[query_id]
            horizon = seq - effective_window(
                query, self._config.window_size
            )
            prev_top = self._ranked(cached, k)
            expired = {
                doc_id: key
                for doc_id, key in cached.items()
                if key[1] <= horizon
            }
            for doc_id in expired:
                del cached[doc_id]
            mid_top = self._ranked(cached, k)
            # The maintained result set is always the top-k of the live
            # candidates, so promotions after expiry are exactly the
            # re-rank's new entrants: expired members (oldest first) pair
            # with promoted candidates (best first).
            expired_members = sorted(
                (doc_id for doc_id in prev_top if doc_id in expired),
                key=lambda doc_id: expired[doc_id][1],
            )
            promoted = [d for d in mid_top if d not in prev_top]
            for expired_id, promoted_id in zip(expired_members, promoted):
                notifications.append(
                    Notification(
                        query_id,
                        self._store.get(promoted_id),
                        self._store.get(expired_id),
                    )
                )
            if not vector or not any(t in vector for t in query.terms):
                continue
            self.counters.queries_evaluated += 1
            cached[document.doc_id] = (
                self._scorer.trel(query.terms, vector),
                seq,
            )
            new_top = self._ranked(cached, k)
            if document.doc_id in new_top:
                displaced = [d for d in mid_top if d not in new_top]
                notifications.append(
                    Notification(
                        query_id,
                        document,
                        self._store.get(displaced[0]) if displaced else None,
                    )
                )
        return notifications

    @staticmethod
    def _ranked(
        cached: Dict[int, Tuple[float, int]], k: int
    ) -> List[int]:
        return sorted(cached, key=lambda doc_id: cached[doc_id], reverse=True)[
            :k
        ]

    def _top(self, query_id: int) -> List[Tuple[int, Tuple[float, int]]]:
        query = self._queries.get(query_id)
        if query is None:
            raise UnknownQueryError(f"query {query_id} is not subscribed")
        horizon = self._seq - effective_window(
            query, self._config.window_size
        )
        cached = self._scores[query_id]
        for doc_id in [
            doc_id
            for doc_id, (_score, seq) in cached.items()
            if seq <= horizon
        ]:
            del cached[doc_id]
        ranked = sorted(
            cached.items(), key=lambda item: item[1], reverse=True
        )
        return ranked[: self._config.k]

    def results(self, query_id: int) -> List[Document]:
        return [
            self._store.get(doc_id) for doc_id, _key in self._top(query_id)
        ]

    def current_dr(self, query_id: int) -> float:
        return sum(key[0] for _doc_id, key in self._top(query_id))


class SpatialOracle(_OracleBase):
    """Reference spatial-keyword engine: every query checked, no grid."""

    method_name = "SpatialOracle"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: query id -> {doc_id: score}, members only.
        self._scores: Dict[int, Dict[int, float]] = {}
        #: query id -> member doc ids, best first by (score, doc_id).
        self._results: Dict[int, List[int]] = {}

    def _score(self, query: DasQuery, document: Document) -> float:
        trel = self._scorer.trel(query.terms, document.vector)
        proximity = spatial_proximity(query.location, document.location)
        return spatial_score(
            proximity, trel, self._config.spatial_weight
        )

    def subscribe(self, query: DasQuery) -> List[Document]:
        if query.query_id in self._queries:
            raise DuplicateQueryError(
                f"query {query.query_id} already subscribed"
            )
        if query.location is None:
            raise ConfigurationError(
                f"query {query.query_id}: spatial mode requires a "
                "query location"
            )
        x, y = query.location
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ConfigurationError(
                f"query {query.query_id} location {query.location} is "
                "outside the unit square"
            )
        seeds = self._store.recent_matching(
            query.terms, self._config.init_scan_limit
        )
        scores = {
            document.doc_id: self._score(query, document)
            for document in seeds
        }
        result = sorted(
            scores, key=lambda doc_id: (scores[doc_id], doc_id), reverse=True
        )[: self._config.k]
        self._queries[query.query_id] = query
        self._scores[query.query_id] = {
            doc_id: scores[doc_id] for doc_id in result
        }
        self._results[query.query_id] = result
        self.counters.queries_subscribed += 1
        return [self._store.get(doc_id) for doc_id in result]

    def unsubscribe(self, query_id: int) -> None:
        if query_id not in self._queries:
            raise UnknownQueryError(f"query {query_id} is not subscribed")
        del self._queries[query_id]
        del self._scores[query_id]
        del self._results[query_id]

    def publish(self, document: Document) -> List[Notification]:
        self._ingest(document)
        notifications: List[Notification] = []
        vector = document.vector
        if not vector:
            return notifications
        for query_id, query in self._queries.items():
            if not any(term in vector for term in query.terms):
                continue
            self.counters.queries_evaluated += 1
            score = self._score(query, document)
            scores = self._scores[query_id]
            result = self._results[query_id]
            if len(result) < self._config.k:
                scores[document.doc_id] = score
                result.append(document.doc_id)
                result.sort(
                    key=lambda doc_id: (scores[doc_id], doc_id),
                    reverse=True,
                )
                self.counters.matches += 1
                notifications.append(Notification(query_id, document, None))
                continue
            worst_id = result[-1]
            if score > scores[worst_id] + TIE_EPSILON:
                del scores[worst_id]
                scores[document.doc_id] = score
                result[-1] = document.doc_id
                result.sort(
                    key=lambda doc_id: (scores[doc_id], doc_id),
                    reverse=True,
                )
                self.counters.matches += 1
                notifications.append(
                    Notification(
                        query_id, document, self._store.get(worst_id)
                    )
                )
        return notifications

    def results(self, query_id: int) -> List[Document]:
        result = self._results.get(query_id)
        if result is None:
            raise UnknownQueryError(f"query {query_id} is not subscribed")
        return [self._store.get(doc_id) for doc_id in result]

    def current_dr(self, query_id: int) -> float:
        result = self._results.get(query_id)
        if result is None:
            raise UnknownQueryError(f"query {query_id} is not subscribed")
        scores = self._scores[query_id]
        return sum(scores[doc_id] for doc_id in result)
