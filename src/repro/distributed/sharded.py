"""Query-sharded DAS processing (Section 2's scale-out note).

"In the case that the DAS queries cannot fit into memory, we can employ
our proposed solution on multiple servers, each handling a subset of DAS
queries independently."  This module simulates that deployment: N
independent engine shards, queries routed by a pluggable policy, every
document broadcast to all shards (each query lives on exactly one shard,
so per-query semantics are untouched — sharded results are *identical*
to a single engine's, which the tests assert).

Routing policies:

``round_robin``
    Evens out query counts — the default.
``hash``
    Stable assignment by query id, so a query's shard can be recomputed
    without a routing table.
``least_loaded``
    Tracks per-shard posting counts and assigns each new query to the
    currently lightest shard (useful when query keyword counts vary a
    lot).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.config import EngineConfig
from repro.core.engine import DasEngine
from repro.core.events import Notification
from repro.core.query import DasQuery
from repro.errors import (
    DuplicateQueryError,
    QueryOrderError,
    UnknownQueryError,
)
from repro.metrics.instrumentation import Counters
from repro.scoring.recency import CachedDecay
from repro.stream.document import Document
from repro.telemetry import Telemetry, merge_snapshots

ROUTING_POLICIES = ("round_robin", "hash", "least_loaded")


class ShardedDasEngine:
    """N independent DAS engine shards behind one engine-like facade."""

    def __init__(
        self,
        n_shards: int,
        config: Optional[EngineConfig] = None,
        routing: str = "round_robin",
        engine_factory: Optional[Callable[[], DasEngine]] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if routing not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing {routing!r}; expected one of {ROUTING_POLICIES}"
            )
        if engine_factory is None:
            base_config = config if config is not None else EngineConfig()
            # One shared Telemetry across shards: a broadcast document is
            # one logical publish, but each shard contributes a span.
            engine_factory = lambda: DasEngine(  # noqa: E731
                base_config, telemetry=telemetry
            )
        self.shards: List[DasEngine] = [engine_factory() for _ in range(n_shards)]
        self.routing = routing
        self._assignment: Dict[int, int] = {}
        self._next_round_robin = 0
        #: Highest query id ever subscribed: ids are strictly increasing
        #: across all shards, as on one :class:`DasEngine`.
        self._last_query_id: Optional[int] = None
        #: One decay-power memo shared by all shards within a publish
        #: (broadcast shards see the same documents, hence the same age
        #: gaps).  ``False`` marks shards with differing decay bases,
        #: where sharing would be wrong; built lazily on first publish.
        self._shared_decay: object = None

    def _decay_memo(self) -> Optional[CachedDecay]:
        """The cross-shard decay memo, or None when shards disagree."""
        shared = self._shared_decay
        if shared is None:
            bases = {shard.decay.base for shard in self.shards}
            shared = (
                CachedDecay(self.shards[0].decay)
                if len(bases) == 1
                else False
            )
            self._shared_decay = shared
        return shared if shared is not False else None

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def query_count(self) -> int:
        return sum(shard.query_count for shard in self.shards)

    def shard_of(self, query_id: int) -> int:
        """Shard index currently hosting ``query_id``."""
        shard = self._assignment.get(query_id)
        if shard is None:
            raise UnknownQueryError(f"query {query_id} is not subscribed")
        return shard

    # -- routing -----------------------------------------------------------

    def _route(self, query: DasQuery) -> int:
        if self.routing == "round_robin":
            shard = self._next_round_robin
            self._next_round_robin = (shard + 1) % self.n_shards
            return shard
        if self.routing == "hash":
            return query.query_id % self.n_shards
        # least_loaded: fewest indexed postings right now.
        loads = [
            shard._index.posting_count for shard in self.shards
        ]
        return loads.index(min(loads))

    # -- engine facade -------------------------------------------------------

    def subscribe(self, query: DasQuery) -> List[Document]:
        if query.query_id in self._assignment:
            raise DuplicateQueryError(f"query {query.query_id} already subscribed")
        if (
            self._last_query_id is not None
            and query.query_id <= self._last_query_id
        ):
            raise QueryOrderError(
                f"query id {query.query_id} is not after previous id "
                f"{self._last_query_id}"
            )
        shard = self._route(query)
        initial = self.shards[shard].subscribe(query)
        self._assignment[query.query_id] = shard
        self._last_query_id = query.query_id
        return initial

    def unsubscribe(self, query_id: int) -> None:
        shard = self.shard_of(query_id)
        self.shards[shard].unsubscribe(query_id)
        del self._assignment[query_id]

    def publish(self, document: Document) -> List[Notification]:
        """Broadcast the document to every shard; merge notifications.

        Each shard holds its own document store and collection
        statistics, mirroring independent servers that each consume the
        full stream.  One decay-power memo is shared across the shard
        calls — the N shards see the same document against the same age
        gaps, so re-deriving ``B^{-(t_cur - t_c)}`` per shard is pure
        waste (the memo is exact: each power is still computed once).
        """
        memo = self._decay_memo()
        if memo is not None:
            memo.clear()
        notifications: List[Notification] = []
        for shard in self.shards:
            notifications.extend(shard.publish(document, decay_cache=memo))
        return notifications

    def publish_batch(
        self, documents: Iterable[Document]
    ) -> List[Notification]:
        """Broadcast a micro-batch to every shard; merge in document order.

        Each shard runs its own :meth:`DasEngine.publish_batch_segmented`
        (keeping the per-shard batching amortisations), then the
        per-document segments are interleaved document-major /
        shard-minor, so the merged stream equals sequential
        :meth:`publish` calls exactly.  Segment boundaries — not
        "group by subject doc id" — carry the document attribution:
        strategy modes emit notifications whose subject is not the
        published document (window promotions).
        """
        docs = list(documents)
        if not docs:
            return []
        memo = self._decay_memo()
        if memo is not None:
            memo.clear()
        per_shard = [
            shard.publish_batch_segmented(docs, decay_cache=memo)
            for shard in self.shards
        ]
        merged: List[Notification] = []
        for position in range(len(docs)):
            for segments in per_shard:
                merged.extend(segments[position])
        return merged

    def results(self, query_id: int) -> List[Document]:
        return self.shards[self.shard_of(query_id)].results(query_id)

    def current_dr(self, query_id: int) -> float:
        return self.shards[self.shard_of(query_id)].current_dr(query_id)

    # -- observability -----------------------------------------------------------

    @property
    def counters(self) -> Counters:
        """Aggregated work counters across shards."""
        total = Counters()
        for shard in self.shards:
            total = total + shard.counters
        # docs_published is per-shard (broadcast); report logical docs.
        total.docs_published //= self.n_shards
        return total

    @property
    def telemetry(self) -> Optional[Telemetry]:
        """The first shard's telemetry (shards typically share one)."""
        return self.shards[0].telemetry

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Attach one shared telemetry instance to every shard."""
        for shard in self.shards:
            shard.attach_telemetry(telemetry)

    def telemetry_snapshot(self) -> Optional[Dict]:
        """Merged telemetry across shards, deduplicated by instance.

        Shards built by the default factory share one ``Telemetry``
        object; counting it once per shard would multiply every
        histogram by ``n_shards``.  Distinct instances (custom
        factories) merge normally.
        """
        seen: Dict[int, Dict] = {}
        for shard in self.shards:
            telemetry = shard.telemetry
            if telemetry is not None and id(telemetry) not in seen:
                seen[id(telemetry)] = telemetry.snapshot()
        if not seen:
            return None
        return merge_snapshots(seen.values())

    def shard_loads(self) -> List[Dict[str, int]]:
        """Per-shard load report: queries, postings, stored documents."""
        return [
            {
                "queries": shard.query_count,
                "postings": shard._index.posting_count,
                "documents": len(shard.store),
            }
            for shard in self.shards
        ]

    def imbalance(self) -> float:
        """Max/mean posting-count ratio across shards (1.0 = perfect)."""
        loads = [shard._index.posting_count for shard in self.shards]
        mean = sum(loads) / len(loads)
        if mean == 0:
            return 1.0
        return max(loads) / mean
