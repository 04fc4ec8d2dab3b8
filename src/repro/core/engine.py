"""The DAS publish/subscribe engine (Algorithm 2).

One engine class implements all four of the paper's streaming methods;
the configuration flags select which machinery is active:

================  ==========  ================  ===============
method            use_blocks  use_group_filter  use_agg_weights
================  ==========  ================  ===============
GIFilter (paper)  yes         yes               yes
IFilter           yes         no                yes
BIRT (baseline)   yes         no                no
IRT (baseline)    no          no                no
================  ==========  ================  ===============

Document processing follows Algorithm 2 with the checks run first.  The
blocks of the document's postings lists are walked once in the
document-at-a-time order of their first posting (ids ascending, ties by
term); at each boundary the check backoff either sits out or the group
filtering condition (Lemma 7) is checked, with ``PS(d_n, t)`` of the
block's own term as ``TRel̃_max``, and may skip the block.  A skipped
block keeps only its warm-up members' postings, every other block all of
them, and the kept ``(query id, term)`` postings are sorted once and
walked as one run.  A query's result table changes only through its own
evaluation, so a check made before any evaluation decides what it would
at the query's posting.  Each query is evaluated at its first posting:
a full result set first meets the quick relevance
bound (Appendix A.1) with the reaching keyword's ``PS`` standing in for
``TRel`` (``PS ≥ TRel``), then with ``TRel`` itself, and only then the
individual filtering condition (Definition 3), evaluated via aggregated
term weight summaries (Lemma 6) where enabled.  The run loop decides the
two quick tiers inline, from the ``dr_q(q.d_e)`` halves the query's
result table keeps (Eq. 25); :meth:`DasEngine._evaluate_query` is the
same decision spelled with the from-scratch reference forms.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, List, Optional, Tuple

from repro.config import METHOD_CONFIGS, EngineConfig
from repro.core.agg_weights import MemoryBudget
from repro.core.blocks import PostingsBlock
from repro.core.events import Notification
from repro.core.filtering import (
    TIE_EPSILON,
    accepts,
    block_similarity_lower_bound,
    block_threshold_lower_bound,
    block_trel_upper_bound,
    group_filters_out,
    quick_relevance_bound,
)
from repro.core.initializer import select_initial_documents
from repro.core.inverted_file import QueryInvertedFile
from repro.core.query import DasQuery
from repro.core.result_set import QueryResultSet
from repro.core.strategies import make_strategy
from repro.errors import (
    DuplicateQueryError,
    QueryOrderError,
    UnknownQueryError,
)
from repro.scoring.diversity import diversity_coefficient, dr_score
from repro.scoring.recency import CachedDecay, ExponentialDecay
from repro.scoring.relevance import LanguageModelScorer
from repro.stream.clock import SimulationClock, require_not_before
from repro.stream.document import Document
from repro.stream.document_store import DocumentStore
from repro.telemetry import Counters, Telemetry
from repro.text.collection_stats import CollectionStatistics
from repro.text.vectors import SimCache

#: Ceiling of the group-check backoff: while checks keep finding nothing
#: to skip, at most this many block boundaries pass between two checks.
MAX_CHECK_BACKOFF = 63

_NEG_INF = float("-inf")

#: ``lists_memo`` miss marker (None is a memoised "no postings list").
_UNRESOLVED = object()


def keyword_bounds(vector, ps_cache: Dict[str, float], alpha: float):
    """``{t: (α·PS(d_n, t), tf(d_n, t))}`` for the reached keywords: what
    the quick tiers read of the keyword whose posting reached a query,
    computed once per publish."""
    return {
        term: (alpha * ps, vector.frequency(term))
        for term, ps in ps_cache.items()
    }


class DasEngine:
    """Continuous top-k diversity-aware publish/subscribe."""

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        clock: Optional[SimulationClock] = None,
        stats: Optional[CollectionStatistics] = None,
        store: Optional[DocumentStore] = None,
        counters: Optional[Counters] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self._config = config if config is not None else EngineConfig()
        self._clock = clock if clock is not None else SimulationClock()
        self._stats = stats if stats is not None else CollectionStatistics()
        self._scorer = LanguageModelScorer(
            self._stats, self._config.smoothing_lambda
        )
        self._decay = ExponentialDecay(self._config.decay_base)
        #: Memo of decay powers by age, cleared at each publish: the same
        #: handful of age gaps recurs across all evaluated queries, and a
        #: subscribe's seed ranking reads and fills it too (a power is a
        #: pure function of the age, so an entry is never stale).
        self._decay_cache = CachedDecay(self._decay)
        #: Per-publish memo ``{result doc_id: Sim(d_n, r)}``: the result
        #: sets and MCS covers a document reaches hold the same few
        #: stored documents.  Cleared at the top of every document.
        self._sim_cache = SimCache()
        #: Loop-invariant ``(2-2α)/(k-1)`` of Eqs. 12/19/25.
        self._coeff = diversity_coefficient(
            self._config.alpha, self._config.k
        )
        self._store = store if store is not None else DocumentStore()
        self._budget = (
            MemoryBudget(self._config.phi_max)
            if self._config.use_agg_weights
            else None
        )
        self._index = QueryInvertedFile(
            self._config.block_size if self._config.use_blocks else None
        )
        self._queries: Dict[int, DasQuery] = {}
        self._result_sets: Dict[int, QueryResultSet] = {}
        #: query id -> its blocks, one per ``query.terms`` entry, as
        #: ``insert`` returned them: a query's blocks never change after
        #: insertion, so updates mark them and ``unsubscribe`` hands them
        #: back to ``remove`` with the query.
        self._memberships: Dict[int, Tuple[PostingsBlock, ...]] = {}
        self._last_query_id: Optional[int] = None
        self.counters = counters if counters is not None else Counters()
        #: Ranking/expiry strategy seam (DESIGN.md §16).  ``None`` in the
        #: decay mode so the paper's hot path pays no indirection; the
        #: window/spatial strategies fully intercept subscribe/publish/
        #: results while the engine keeps owning query-id bookkeeping.
        self._strategy = make_strategy(self)
        #: Yield-driven backoff of the block-boundary check (DESIGN.md
        #: §6): a check that skips nothing widens the run of boundaries
        #: traversed without a check (1, 3, 7 … ``MAX_CHECK_BACKOFF``), a
        #: check that skips resets it to zero.  ``_check_sitout`` is what
        #: is left of the current run.  Exact either way: a skip is sound
        #: but optional, an unchecked block's members reject individually.
        self._check_backoff = 0
        self._check_sitout = 0
        self.telemetry = telemetry
        #: The active publish's observation; set only while telemetry is
        #: attached and a publish is in flight (hot paths branch on it).
        self._obs = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def for_method(cls, method: str, **config_overrides) -> "DasEngine":
        """Build an engine configured as one of the paper's methods.

        ``method`` is one of ``"GIFilter"``, ``"IFilter"``, ``"BIRT"``,
        ``"IRT"``; extra keyword arguments override config fields.
        """
        try:
            factory = METHOD_CONFIGS[method]
        except KeyError:
            raise ValueError(
                f"unknown method {method!r}; expected one of "
                f"{sorted(METHOD_CONFIGS)}"
            ) from None
        return cls(factory(**config_overrides))

    # -- introspection ------------------------------------------------------

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
    def stats(self) -> CollectionStatistics:
        return self._stats

    @property
    def scorer(self) -> LanguageModelScorer:
        return self._scorer

    @property
    def decay(self) -> ExponentialDecay:
        return self._decay

    @property
    def query_count(self) -> int:
        return len(self._queries)

    @property
    def strategy(self):
        """The active strategy object, or ``None`` in the decay mode."""
        return self._strategy

    @property
    def method_name(self) -> str:
        cfg = self._config
        if cfg.use_group_filter:
            return "GIFilter"
        if cfg.use_agg_weights:
            return "IFilter" if cfg.use_blocks else "IRT+AW"
        return "BIRT" if cfg.use_blocks else "IRT"

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Attach (or replace) the engine's telemetry instance."""
        self.telemetry = telemetry

    def telemetry_snapshot(self) -> Optional[Dict]:
        """JSON-safe telemetry snapshot, or None without telemetry."""
        return self.telemetry.snapshot() if self.telemetry is not None else None

    def results(self, query_id: int) -> List[Document]:
        """Current result set of a query, best/newest first."""
        if self._strategy is not None:
            self._query_of(query_id)
            return self._strategy.results(query_id)
        result_set = self._result_set_of(query_id)
        return result_set.documents_newest_first()

    def iter_term_blocks(self):
        """Every (term, block) pair of the query inverted file.

        Read-only view for invariant checkers (the simulation harness
        audits the Section 5/6 filtering bounds against it); callers
        must not mutate the blocks.
        """
        return self._index.items()

    def current_dr(self, query_id: int) -> float:
        """Score of the live result set under the active strategy.

        Decay mode: reference ``DR(q.R)`` (Eq. 1).  Strategy modes:
        the sum of the members' strategy scores."""
        if self._strategy is not None:
            self._query_of(query_id)
            return self._strategy.current_dr(query_id)
        query = self._query_of(query_id)
        result_set = self._result_sets[query_id]
        return dr_score(
            query.terms,
            result_set.documents(),
            self._scorer,
            self._decay,
            self._clock.now,
            self._config.alpha,
            self._config.k,
        )

    def index_size_report(self) -> Dict[str, int]:
        """Structural index footprint for the Figure 8 experiment."""
        result_sets = self._result_sets.values()
        report = {
            "terms": self._index.term_count,
            "postings": self._index.posting_count,
            "blocks": self._index.block_count,
            "mcs_documents": self._index.mcs_document_count(),
            "aw_entries": sum(rs.aw_entry_count for rs in result_sets),
            "result_entries": sum(rs.size for rs in result_sets),
            # Result sets below k: they hold rows only, so ``aw_entries``
            # belongs to the other ``queries − warmup_queries``.
            "warmup_queries": sum(not rs.is_full for rs in result_sets),
            "stored_documents": len(self._store),
        }
        # Rough footprint: a posting is a slot in its block's
        # ``query_ids`` list and one in its query's memberships tuple, the
        # id object being the query's own (~48 B with the list and tuple
        # headers and over-allocation shared among them: sys.getsizeof of
        # every block's ``query_ids`` and every memberships tuple after
        # the measured phases of the three in-process benchmark
        # workloads, CPython 3.11, read 33.1-61.0 B per posting; a term's
        # own list of blocks, 64 B with one block, is not counted), a
        # result row is a list slot and a double in its table's columns,
        # plus a double and a flag byte once the table holds an R2 row
        # (~24 B: sys.getsizeof of the columns of full k=20 tables, sized
        # exactly at the fill, read 22.8 B per row on the same runs, and
        # of all tables, warm-up ones over-allocated, 23.0-29.9 B), an AW
        # entry is a dict slot and, for the 12-16 % of entries not holding
        # a stored document's own ``units`` float, a 24 B float (~40 B:
        # sys.getsizeof of the tables plus 24 B per unshared value after
        # the measured phases of the three in-process benchmark
        # workloads, CPython 3.11, read 38.3-41.7 B per entry), an MCS
        # member is a reference (~8 B).
        report["approx_bytes"] = (
            report["postings"] * 48
            + report["result_entries"] * 24
            + report["aw_entries"] * 40
            + report["mcs_documents"] * 8
        )
        return report

    # -- subscription ---------------------------------------------------------

    def check_subscribe(self, query: DasQuery) -> None:
        """Raise what :meth:`subscribe` would refuse ``query`` with, and
        change nothing (the serving runtime logs only a query that
        passes)."""
        if query.query_id in self._queries:
            raise DuplicateQueryError(f"query {query.query_id} already subscribed")
        if (
            self._last_query_id is not None
            and query.query_id <= self._last_query_id
        ):
            raise QueryOrderError(
                f"query id {query.query_id} is not after previous id "
                f"{self._last_query_id}"
            )
        if self._strategy is not None:
            self._strategy.check_subscribe(query)

    def subscribe(self, query: DasQuery) -> List[Document]:
        """Register a DAS query; returns its initial results, newest first.

        Query ids must be strictly increasing (the inverted file is
        append-only, Section 4.3).
        """
        self.check_subscribe(query)
        if self._strategy is not None:
            # The strategy owns seeding and result maintenance; the engine
            # keeps owning id bookkeeping so every caller (runtime, harness,
            # checkpoints) sees the same ``_queries`` surface in all modes.
            initial = self._strategy.subscribe(query)
            self._queries[query.query_id] = query
            self._last_query_id = query.query_id
            self.counters.queries_subscribed += 1
            return initial
        result_set = QueryResultSet(
            self._config.k,
            budget=self._budget,
            track_aggregated_weights=self._config.use_agg_weights,
            alpha=self._config.alpha,
            coeff=self._coeff,
        )
        seeds, trels = select_initial_documents(
            self._store,
            query.terms,
            self._config.k,
            self._config.init_scan_limit,
            scorer=self._scorer,
            decay=self._decay_cache,
            now=self._clock.now,
        )
        cosines, aw_dots = result_set.seed(seeds, trels)
        self.counters.sim_evaluations += cosines
        self.counters.aw_dot_products += aw_dots
        self._queries[query.query_id] = query
        self._result_sets[query.query_id] = result_set
        self._last_query_id = query.query_id
        self._memberships[query.query_id] = self._index.insert(query)
        # The insert dropped the touched blocks' MCS summaries; the first
        # group check that meets a block rebuilds it (Section 7.1).
        self.counters.queries_subscribed += 1
        return result_set.documents_newest_first()

    def unsubscribe(self, query_id: int) -> None:
        query = self._query_of(query_id)
        if self._strategy is not None:
            self._strategy.unsubscribe(query)
            del self._queries[query_id]
            return
        result_set = self._result_sets.pop(query_id)
        del self._queries[query_id]
        result_set.release_budget()
        self._index.remove(query, self._memberships.pop(query_id))

    def _query_of(self, query_id: int) -> DasQuery:
        query = self._queries.get(query_id)
        if query is None:
            raise UnknownQueryError(f"query {query_id} is not subscribed")
        return query

    def _result_set_of(self, query_id: int) -> QueryResultSet:
        result_set = self._result_sets.get(query_id)
        if result_set is None:
            raise UnknownQueryError(f"query {query_id} is not subscribed")
        return result_set

    # -- document processing (Algorithm 2) ---------------------------------------

    def publish(self, document: Document) -> List[Notification]:
        """Process one stream document; returns the triggered updates."""
        require_not_before(self._clock, document)
        if self._strategy is not None:
            return self._strategy.publish(document)
        self._decay_cache.clear()
        return self._publish_one(document, {})

    def publish_batch(
        self, documents: Iterable[Document]
    ) -> List[Notification]:
        """Process a micro-batch of stream documents.

        Semantically identical to sequential :meth:`publish` calls —
        each document is processed in order against the collection
        statistics, store and clock state left by its predecessors, and
        the returned list equals the concatenation of the per-document
        notification lists (same order, same counter totals).

        What the batch amortizes is work that cannot change between the
        documents of one batch, because no subscription can interleave:
        term -> postings-list resolution is memoised across the batch,
        and the decay-power memo is cleared once per batch instead of
        once per document (decay powers are pure functions of the age
        gap, so reuse across documents is exact).
        """
        notifications: List[Notification] = []
        if self._strategy is not None:
            for document in documents:
                require_not_before(self._clock, document)
                notifications.extend(self._strategy.publish(document))
            return notifications
        self._decay_cache.clear()
        lists_memo: Dict[str, Optional[List[PostingsBlock]]] = {}
        for document in documents:
            require_not_before(self._clock, document)
            notifications.extend(self._publish_one(document, lists_memo))
        return notifications

    def _publish_one(
        self,
        document: Document,
        lists_memo: Dict[str, Optional[List[PostingsBlock]]],
    ) -> List[Notification]:
        """Telemetry shell around :meth:`_publish_core`: one publish span
        per document, with per-stage latency attribution."""
        telemetry = self.telemetry
        if telemetry is None:
            return self._publish_core(document, lists_memo)
        observation = telemetry.begin_publish()
        self._obs = observation
        try:
            notifications = self._publish_core(document, lists_memo)
        except BaseException:
            telemetry.abort_publish(observation)
            raise
        finally:
            self._obs = None
        telemetry.end_publish(observation)
        return notifications

    def _publish_core(
        self,
        document: Document,
        lists_memo: Dict[str, Optional[List[PostingsBlock]]],
    ) -> List[Notification]:
        """Algorithm 2 for one document; ``lists_memo`` caches postings
        lookups for the enclosing batch (the index is frozen while a
        publish call runs)."""
        sim_cache = self._sim_cache
        sim_cache.clear()
        if document.created_at > self._clock.now:
            self._clock.advance_to(document.created_at)
        self._stats.add(document.vector)
        self._store.add(document)
        self.counters.docs_published += 1
        notifications: List[Notification] = []
        vector = document.vector
        if not vector:
            return notifications
        now = self._clock.now

        # Postings lists of the document's terms that index any query.
        lists: Dict[str, List[PostingsBlock]] = {}
        for term in vector.terms():
            blocks = lists_memo.get(term, _UNRESOLVED)
            if blocks is _UNRESOLVED:
                blocks = lists_memo[term] = self._index.list_for(term)
            if blocks is not None:
                lists[term] = blocks
        if not lists:
            return notifications
        # A reached query is in the list of each of its keywords, so the
        # reached terms are all of its keywords the document contains.
        ps_cache = {term: self._scorer.ps(vector, term) for term in lists}
        keywords = keyword_bounds(vector, ps_cache, self._config.alpha)

        # 1. Check: every block in the document-at-a-time order of its
        # first posting (ids ascending, ties by term), where the group
        # filter may be checked or the backoff sits the boundary out.
        # 2. Keep: a skipped block's warm-up members, which the group
        # bound does not cover, and every posting of every other block.
        # 3. Sort: the kept ``(query id, term)`` postings in the same order.
        counters = self.counters
        use_blocks = self._config.use_blocks
        starts = [
            (block.query_ids[0], term, block)
            for term, blocks in lists.items()
            for block in blocks
        ]
        if use_blocks:
            starts.sort()
        pairs: List[Tuple[int, str]] = []
        for _first_id, term, block in starts:
            if use_blocks:
                if self._check_sitout:
                    self._check_sitout -= 1
                    counters.group_checks_deferred += 1
                elif self._check_boundary(
                    term, block, document, ps_cache[term], now
                ):
                    pairs.extend(zip(block.unfilled_ids, repeat(term)))
                    continue
            counters.blocks_visited += 1
            counters.postings_visited += len(block.query_ids)
            pairs.extend(zip(block.query_ids, repeat(term)))
        pairs.sort()
        self._evaluate_run(
            pairs, document, ps_cache, keywords, now, notifications
        )
        counters.sim_cache_hits += sim_cache.lookups - len(sim_cache)
        return notifications

    def _evaluate_run(
        self,
        run: List[Tuple[int, str]],
        document: Document,
        ps_cache: Dict[str, float],
        keywords: Dict[str, Tuple[float, int]],
        now: float,
        notifications: List[Notification],
    ) -> None:
        """Evaluate each query of a sorted run of postings at its first
        posting.

        A full query is decided here, in :meth:`_evaluate_query`'s float
        expressions and order: ``dr_q(q.d_e)`` from its table's kept
        halves and the memoised ``T(d_e)``, the reaching keyword's floor
        ``(AW(t)·tf(t))/‖d_n‖``, then the ``PS`` and ``TRel`` tiers.  Only
        a warm-up admit and a survivor of both tiers call out.
        """
        counters = self.counters
        obs = self._obs
        result_sets = self._result_sets
        queries = self._queries
        powers = self._decay_cache.powers
        at_age = self._decay_cache.at_age
        trel_from_ps = self._scorer.trel_from_ps
        alpha = self._config.alpha
        coeff = self._coeff
        k_minus_1 = self._config.k - 1
        vector = document.vector
        norm = vector.norm
        evaluated = quick = 0
        entered = 0.0
        last = None
        for query_id, term in run:
            if query_id == last:
                continue
            last = query_id
            evaluated += 1
            if obs is not None:
                entered = obs.time()
            result_set = result_sets[query_id]
            created = result_set.kept_created
            if created is None:
                self._admit(
                    query_id, result_set, document, ps_cache, entered,
                    notifications,
                )
                continue
            age = now - created
            recency = powers.get(age)
            if recency is None:
                recency = at_age(age)
            dr_oldest = result_set.kept_rel * recency + result_set.kept_div
            beaten = dr_oldest + TIE_EPSILON
            alpha_ps, tf = keywords[term]
            floor = 0.0
            aw = result_set._aw
            if aw is not None:
                weight = aw._weights.get(term)
                if weight is not None:
                    floor = (weight * tf) / norm
            spread = coeff * (k_minus_1 - floor)
            rejected = alpha_ps + spread <= beaten
            if not rejected:
                trel = trel_from_ps(queries[query_id].terms, ps_cache, vector)
                rejected = alpha * trel + spread <= beaten
            if not rejected:
                self._compete(
                    query_id, result_set, document, trel, dr_oldest, entered,
                    notifications,
                )
                continue
            quick += 1
            if obs is not None:
                obs.add("individual_filter", obs.time() - entered)
        counters.queries_evaluated += evaluated
        counters.quick_rejections += quick

    def _check_boundary(
        self,
        term: str,
        block,
        document: Document,
        ps: float,
        now: float,
    ) -> bool:
        """One engaged block-boundary check; moves the backoff by its yield."""
        obs = self._obs
        entered = obs.time() if obs is not None else 0.0
        skip = self._try_skip_block(term, block, document, ps, now)
        if obs is not None:
            obs.add("group_filter", obs.time() - entered)
        if skip:
            self.counters.blocks_skipped += 1
            self._check_backoff = 0
        elif block.dtrel_min != _NEG_INF:
            # A block of warm-up members only has no threshold to beat:
            # its miss says nothing about whether checking pays.
            backoff = min(2 * self._check_backoff + 1, MAX_CHECK_BACKOFF)
            self._check_backoff = self._check_sitout = backoff
        return skip

    def _try_skip_block(
        self,
        term: str,
        block,
        document: Document,
        ps: float,
        now: float,
    ) -> bool:
        """Group filtering condition for one block (Lemma 7); a dirty
        block's summaries are refreshed first (Section 7.1).  ``ps`` is
        ``PS(d_n, term)``: every member holds ``term``, so it bounds each
        member's ``TRel`` (Eq. 18)."""
        self.counters.group_checks += 1
        if block.meta_dirty:
            block.refresh_metadata(self._result_sets)
            self.counters.scalar_refreshes += 1
        threshold = block_threshold_lower_bound(
            block, self._decay_cache, now, self._config.alpha
        )
        if threshold == _NEG_INF:
            # No filled member: nothing any upper bound could stay under.
            return False
        trel_upper = block_trel_upper_bound((ps,))
        sim_lower = 0.0
        if self._config.use_group_filter:
            if block.needs_mcs_rebuild(self._config.delta_s):
                block.rebuild_mcs(term, self._result_sets)
                self.counters.mcs_rebuilds += 1
            sim_lower = block_similarity_lower_bound(
                block, document.vector, sim_cache=self._sim_cache
            )
            if block.mcs_sets:
                self.counters.sim_evaluations += sum(
                    len(cover) for cover in block.mcs_sets
                )
        return group_filters_out(
            trel_upper,
            sim_lower,
            threshold,
            self._config.alpha,
            self._config.k,
            coeff=self._coeff,
        )

    def _evaluate_query(
        self,
        query_id: int,
        term: str,
        document: Document,
        ps_cache: Dict[str, float],
        now: float,
        notifications: List[Notification],
    ) -> None:
        """Individual filtering steps (Section 6.2) for one query, reached
        through the posting of its keyword ``term``.

        The reference form of :meth:`_evaluate_run`'s per-query decision,
        which the publish path does not call (tests compare against it):
        ``dr_q(q.d_e)``, the keyword floor and both quick bounds come from
        :meth:`QueryResultSet.dr_oldest`,
        :meth:`QueryResultSet.similarity_floor` and
        :func:`quick_relevance_bound`, computed from scratch.

        Telemetry attribution: time from entry until the admit/replace
        decision counts as ``individual_filter``; the mutation itself
        (result-set update, notification, block invalidation) counts as
        ``result_update``.
        """
        self.counters.queries_evaluated += 1
        obs = self._obs
        entered = obs.time() if obs is not None else 0.0
        result_set = self._result_sets[query_id]
        if not result_set.is_full:
            self._admit(
                query_id, result_set, document, ps_cache, entered,
                notifications,
            )
            return
        vector = document.vector
        config = self._config
        dr_oldest = result_set.dr_oldest(
            now, self._decay_cache, config.alpha, coeff=self._coeff
        )
        # ``term`` is in the document and (usually) in most of q.R: its
        # addend of the Lemma 6 sum already bounds dr_q(d_n) from above.
        floor = result_set.similarity_floor(term, vector)
        # TRel is a float product of PS values <= 1, one of them the
        # reaching keyword's, so PS(term) >= TRel bounds it before it is
        # paid: this tier rejects only what the TRel tier would.
        beaten = dr_oldest + TIE_EPSILON
        rejected = quick_relevance_bound(
            ps_cache[term], config.alpha, config.k, floor, self._coeff
        ) <= beaten
        if not rejected:
            trel = self._scorer.trel_from_ps(
                self._queries[query_id].terms, ps_cache, vector
            )
            rejected = quick_relevance_bound(
                trel, config.alpha, config.k, floor, self._coeff
            ) <= beaten
        if rejected:
            self.counters.quick_rejections += 1
            if obs is not None:
                obs.add("individual_filter", obs.time() - entered)
            return
        self._compete(
            query_id, result_set, document, trel, dr_oldest, entered,
            notifications,
        )

    def _admit(
        self,
        query_id: int,
        result_set: QueryResultSet,
        document: Document,
        ps_cache: Dict[str, float],
        entered: float,
        notifications: List[Notification],
    ) -> None:
        """Warm-up: every matching document is admitted until |R| = k.
        ``entered`` is the observation clock at the evaluation's start."""
        obs = self._obs
        trel = self._scorer.trel_from_ps(
            self._queries[query_id].terms, ps_cache, document.vector
        )
        if obs is not None:
            mutated = obs.time()
            obs.add("individual_filter", mutated - entered)
            entered = mutated
        cosines, aw_dots = result_set.admit(document, trel)
        self.counters.matches += 1
        notifications.append(Notification(query_id, document, None))
        if result_set.is_full:
            # The query just left warm-up.  Until now its blocks'
            # summaries, which cover filled members only, could not
            # have changed; now it joins them, and MCS covers built
            # without it would make the group bound unsafe.
            self.counters.sim_evaluations += cosines
            self.counters.aw_dot_products += aw_dots
            config = self._config
            if config.use_blocks:
                for block in self._memberships[query_id]:
                    block.meta_dirty = True
                    if config.use_group_filter:
                        block.mcs_sets = None
                        block.mcs_initial_count = 0
        if obs is not None:
            obs.add("result_update", obs.time() - entered)

    def _compete(
        self,
        query_id: int,
        result_set: QueryResultSet,
        document: Document,
        trel: float,
        dr_oldest: float,
        entered: float,
        notifications: List[Notification],
    ) -> None:
        """A full query past both quick tiers: the individual filtering
        condition (Definition 3) on the Lemma 6 sum, then the replace."""
        obs = self._obs
        config = self._config
        sim_sum, direct, aw_used = result_set.similarity_sum(
            document.vector, self._sim_cache
        )
        self.counters.sim_evaluations += direct
        self.counters.aw_dot_products += aw_used
        dr_new = (
            config.alpha * trel + self._coeff * ((config.k - 1) - sim_sum)
        )
        if not accepts(dr_new, dr_oldest):
            if obs is not None:
                obs.add("individual_filter", obs.time() - entered)
            return

        if obs is not None:
            mutated = obs.time()
            obs.add("individual_filter", mutated - entered)
            entered = mutated
        evicted, cosines, aw_dots = result_set.replace(
            document, trel, self._sim_cache
        )
        self.counters.sim_evaluations += cosines
        self.counters.aw_dot_products += aw_dots
        self.counters.matches += 1
        self.counters.replacements += 1
        notifications.append(Notification(query_id, document, evicted))
        self._on_result_updated(query_id, result_set, evicted)
        if obs is not None:
            obs.add("result_update", obs.time() - entered)

    # -- index maintenance (Section 7.1) ------------------------------------------

    def _on_result_updated(
        self, query_id: int, result_set: QueryResultSet, evicted: Document
    ) -> None:
        """Propagate a replacement to every block the query belongs to.

        Both the evicted document and the query's *new* oldest document
        stop counting toward MCS coverage for this query, so any cover
        relying on either must be dropped (conservative superset of the
        paper's Algorithm 2 lines 9-11).
        """
        if not self._config.use_blocks:
            return
        use_group_filter = self._config.use_group_filter
        invalidated = None
        for block in self._memberships[query_id]:
            block.meta_dirty = True
            # Since the check backoff few blocks hold covers at all.
            if use_group_filter and block.mcs_sets:
                if invalidated is None:
                    invalidated = frozenset(
                        (evicted.doc_id, result_set._docs[0].doc_id)
                    )
                dropped = block.invalidate_mcs_with(invalidated)
                self.counters.mcs_invalidations += dropped
