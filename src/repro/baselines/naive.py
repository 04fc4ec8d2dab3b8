"""Straightforward DAS processing (Section 3's strawman).

For every published document and every subscribed query the naive engine
recomputes the replacement decision from first principles — O(k²) per
query — with no inverted file, no bounds, and no summaries.  It is
hopeless at scale but *by construction* correct, which makes it the
oracle the optimised engines are tested against: given the same stream,
GIFilter/IFilter/BIRT/IRT must produce exactly the same result sets.

One semantic shared with the optimised engines (and the paper's query
result tables, Table 3): ``TRel(q, d)`` is computed against the
collection statistics at the moment the document enters the result set
and cached — only the decay factor ``T(d)`` changes afterwards.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import EngineConfig
from repro.core.events import Notification
from repro.core.filtering import TIE_EPSILON
from repro.core.initializer import select_initial_documents
from repro.core.query import DasQuery
from repro.errors import DuplicateQueryError, UnknownQueryError
from repro.scoring.recency import ExponentialDecay
from repro.scoring.relevance import LanguageModelScorer
from repro.stream.clock import SimulationClock, require_not_before
from repro.stream.document import Document
from repro.stream.document_store import DocumentStore
from repro.telemetry import Counters
from repro.text.collection_stats import CollectionStatistics
from repro.text.vectors import dissimilarity


class _Result:
    """One result document plus its cached text relevance."""

    __slots__ = ("document", "trel")

    def __init__(self, document: Document, trel: float) -> None:
        self.document = document
        self.trel = trel


class NaiveEngine:
    """Reference DAS engine: full ``DR`` recomputation per query."""

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        clock: Optional[SimulationClock] = None,
        stats: Optional[CollectionStatistics] = None,
        store: Optional[DocumentStore] = None,
        counters: Optional[Counters] = None,
        init_strategy: str = "relevant",
    ) -> None:
        self._config = config if config is not None else EngineConfig()
        self._clock = clock if clock is not None else SimulationClock()
        self._stats = stats if stats is not None else CollectionStatistics()
        self._scorer = LanguageModelScorer(
            self._stats, self._config.smoothing_lambda
        )
        self._decay = ExponentialDecay(self._config.decay_base)
        self._store = store if store is not None else DocumentStore()
        self._queries: Dict[int, DasQuery] = {}
        #: query id -> result rows, oldest first.
        self._results: Dict[int, List[_Result]] = {}
        self._init_strategy = init_strategy
        self.counters = counters if counters is not None else Counters()

    method_name = "Naive"

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

    # -- subscription -------------------------------------------------------

    def subscribe(self, query: DasQuery) -> List[Document]:
        if query.query_id in self._queries:
            raise DuplicateQueryError(f"query {query.query_id} already subscribed")
        seeds = select_initial_documents(
            self._store,
            query.terms,
            self._config.k,
            self._config.init_scan_limit,
            strategy=self._init_strategy,
            scorer=self._scorer,
            decay=self._decay,
            now=self._clock.now,
            alpha=self._config.alpha,
        )
        rows = [
            _Result(document, self._scorer.trel(query.terms, document.vector))
            for document in seeds
        ]
        self._queries[query.query_id] = query
        self._results[query.query_id] = rows
        self.counters.queries_subscribed += 1
        return list(reversed(seeds))

    def unsubscribe(self, query_id: int) -> None:
        if query_id not in self._queries:
            raise UnknownQueryError(f"query {query_id} is not subscribed")
        del self._queries[query_id]
        del self._results[query_id]

    def results(self, query_id: int) -> List[Document]:
        rows = self._results.get(query_id)
        if rows is None:
            raise UnknownQueryError(f"query {query_id} is not subscribed")
        return [row.document for row in reversed(rows)]

    def current_dr(self, query_id: int) -> float:
        query = self._queries[query_id]
        if query is None:
            raise UnknownQueryError(f"query {query_id} is not subscribed")
        return self._dr(self._results[query_id], self._clock.now)

    # -- scoring ---------------------------------------------------------------

    def _dr(self, rows: List[_Result], now: float) -> float:
        """``DR`` (Eq. 1) over result rows with cached TRel values."""
        config = self._config
        relevance = sum(
            row.trel * self._decay.at(row.document.created_at, now)
            for row in rows
        )
        coeff = 2.0 / (config.k - 1) if config.k > 1 else 0.0
        pairwise = 0.0
        for i in range(len(rows)):
            vec_i = rows[i].document.vector
            for j in range(i + 1, len(rows)):
                pairwise += dissimilarity(vec_i, rows[j].document.vector)
        return config.alpha * relevance + (1.0 - config.alpha) * coeff * pairwise

    # -- document processing ------------------------------------------------------

    def publish(self, document: Document) -> List[Notification]:
        require_not_before(self._clock, document)
        if document.created_at > self._clock.now:
            self._clock.advance_to(document.created_at)
        self._stats.add(document.vector)
        self._store.add(document)
        self.counters.docs_published += 1
        notifications: List[Notification] = []
        now = self._clock.now
        config = self._config
        vector = document.vector
        new_trel_cache: Optional[float] = None
        for query_id, query in self._queries.items():
            if not any(term in vector for term in query.terms):
                continue
            self.counters.queries_evaluated += 1
            rows = self._results[query_id]
            trel_new = self._scorer.trel(query.terms, vector)
            if len(rows) < config.k:
                rows.append(_Result(document, trel_new))
                self.counters.matches += 1
                notifications.append(Notification(query_id, document, None))
                continue
            candidate = rows[1:] + [_Result(document, trel_new)]
            dr_before = self._dr(rows, now)
            dr_after = self._dr(candidate, now)
            if dr_after > dr_before + TIE_EPSILON:
                evicted = rows[0].document
                self._results[query_id] = candidate
                self.counters.matches += 1
                notifications.append(
                    Notification(query_id, document, evicted)
                )
        return notifications
