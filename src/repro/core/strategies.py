"""Pluggable ranking/expiry strategies (DESIGN.md §16).

The paper fixes one scenario — time-decayed text relevance with
diversity (Eq. 1/4) — but the maintenance machinery around it (inverted
matching, result sets, checkpoints, engine shapes, the serving runtime)
is scenario-agnostic.  This module is the seam: a strategy object owns
the scoring function ``R(q, d)`` and the eviction rule, and
:class:`~repro.core.engine.DasEngine` delegates ``subscribe`` /
``publish`` / ``results`` / ``current_dr`` / checkpoint state to it when
one is active.

``mode="decay"`` deliberately maps to *no* strategy object: the paper's
hot path (Algorithm 2 with Lemmas 2-7) stays exactly as it was, so the
default mode is bit-identical to the pre-seam engine.

Two strategies ship behind the seam:

:class:`WindowStrategy` (``mode="window"``)
    Count-based sliding window.  Only the newest ``config.window_size``
    documents are alive; each query may narrow that with a per-query
    ``window`` option.  Scores are pure text relevance cached at first
    encounter; the result set is the top-k live candidates by
    ``(score, seq)`` with newest-wins tie-breaking.  The genuinely new
    maintenance path: when a top-k member *expires*, the best retained
    candidate is promoted in its place (one notification per promotion,
    carrying the expired member as ``replaced``); expiry without a
    candidate shrinks the result silently.

:class:`SpatialStrategy` (``mode="spatial"``)
    Spatial-keyword scoring: ``w·proximity + (1-w)·TRel`` over queries
    carrying a location in the unit square.  Queries live in a uniform
    grid; per published document, whole cells are pruned with the same
    upper-bound discipline as Eq. 12 (see
    :func:`repro.core.filtering.spatial_cell_filters_out`), which is
    provably unable to drop a qualifying query.

Each strategy also supplies its brute-force oracle
(:func:`make_oracle`) and its invariant set
(:meth:`Strategy.check_invariants`) so the differential/property/chaos
proof tiers generalise beyond the decay scenario.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.core.events import Notification
from repro.core.filtering import (
    TIE_EPSILON,
    cell_proximity_upper_bound,
    spatial_cell_filters_out,
    spatial_proximity,
    spatial_score,
)
from repro.core.query import DasQuery
from repro.errors import ConfigurationError
from repro.stream.document import Document

_NEG_INF = float("-inf")


def make_strategy(engine) -> Optional["Strategy"]:
    """The engine's strategy object, or ``None`` for the decay mode.

    Returning ``None`` (not a pass-through object) keeps the decay hot
    path free of any per-call indirection."""
    mode = engine.config.mode
    if mode == "decay":
        return None
    if mode == "window":
        return WindowStrategy(engine)
    if mode == "spatial":
        return SpatialStrategy(engine)
    raise ConfigurationError(f"unknown strategy mode {mode!r}")


def make_oracle(config, **kwargs):
    """Brute-force reference engine for the config's mode.

    The decay mode keeps :class:`~repro.baselines.naive.NaiveEngine`;
    the strategy modes get their own full re-rank oracles."""
    if config.mode == "window":
        from repro.baselines.strategy_oracles import WindowOracle

        return WindowOracle(config, **kwargs)
    if config.mode == "spatial":
        from repro.baselines.strategy_oracles import SpatialOracle

        return SpatialOracle(config, **kwargs)
    from repro.baselines.naive import NaiveEngine

    return NaiveEngine(config, **kwargs)


def effective_window(query: DasQuery, window_size: int) -> int:
    """A query's count-based window, capped by the engine-wide bound.

    The global retention buffer holds ``config.window_size`` documents,
    so no per-query option may look further back than that."""
    if query.window is None:
        return window_size
    return min(query.window, window_size)


class Strategy:
    """Interface the engine delegates to while a non-decay mode is active."""

    #: Mode string, matching ``EngineConfig.mode``.
    mode = "abstract"

    def __init__(self, engine) -> None:
        self._engine = engine

    # Every method below operates under the engine's dup/order/unknown
    # query-id guards: the engine validates ids, the strategy maintains
    # per-query state.

    def check_subscribe(self, query: DasQuery) -> None:
        """Refuse a query this mode cannot serve (before any state
        changes); every query passes by default."""

    def subscribe(self, query: DasQuery) -> List[Document]:
        raise NotImplementedError

    def unsubscribe(self, query: DasQuery) -> None:
        raise NotImplementedError

    def publish(self, document: Document) -> List[Notification]:
        raise NotImplementedError

    def results(self, query_id: int) -> List[Document]:
        raise NotImplementedError

    def current_dr(self, query_id: int) -> float:
        raise NotImplementedError

    def checkpoint_state(self) -> Dict:
        """JSON-safe strategy state for ``persistence.checkpoint``."""
        raise NotImplementedError

    def restore_state(self, state: Dict) -> None:
        """Rebuild from :meth:`checkpoint_state` output.  The engine's
        store and ``_queries`` are already restored when this runs."""
        raise NotImplementedError

    def check_invariants(self) -> List[str]:
        """Mode-specific invariant audit; returns violation descriptions.

        Called by the simulation harness's ``InvariantMonitor`` in place
        of the decay-specific Lemma 1 / Eq. 12 checks."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Window-expiry strategy


class _WindowQueryState:
    """Per-query window state: the retained candidate buffer + top-k."""

    __slots__ = ("query", "window", "candidates", "arrivals", "result", "order")

    def __init__(self, query: DasQuery, window: int, order: int = 0) -> None:
        self.query = query
        self.window = window
        #: doc_id -> (score, seq); score is TRel cached at first
        #: encounter, seq the document's global arrival number.
        self.candidates: Dict[int, Tuple[float, int]] = {}
        #: (seq, doc_id) in arrival order, for O(1) expiry.
        self.arrivals = deque()
        #: Top-k doc ids, best first by (score, seq) descending.
        self.result: List[int] = []
        #: Subscription counter — publish visits affected queries in
        #: subscription order, matching the naive every-state walk.
        self.order = order


class WindowStrategy(Strategy):
    """Count-based sliding window with promotion-on-expiry.

    Publish work is indexed two ways so cost scales with the *affected*
    queries, not the subscribed ones: a term -> query-ids map picks the
    queries that can match the document, and an expiry schedule keyed by
    arrival seq picks the queries with a candidate aging out at exactly
    this arrival (a doc entering query ``q`` at seq ``s`` leaves at seq
    ``s + window_q``; seq advances by one per publish, so each bucket is
    visited exactly when it falls due).  Both are pure indexes over the
    same per-query state the naive walk used — observable behaviour is
    unchanged and stays byte-identical to :class:`WindowOracle`."""

    mode = "window"

    def __init__(self, engine) -> None:
        super().__init__(engine)
        #: Global arrival counter; documents never share a seq, so the
        #: (score, seq) ranking key is a strict total order.
        self._seq = 0
        #: The newest ``config.window_size`` documents, oldest first.
        self._window = deque()
        self._states: Dict[int, _WindowQueryState] = {}
        self._order = 0
        #: term -> ids of live queries holding that term.
        self._term_queries: Dict[str, Set[int]] = {}
        #: expire seq -> ids of queries with an arrival due then.
        #: Entries for since-unsubscribed queries are skipped on pop.
        self._expiry: Dict[int, List[int]] = {}

    # -- ranking ----------------------------------------------------------

    def _resort(self, state: _WindowQueryState) -> None:
        candidates = state.candidates
        state.result.sort(key=lambda doc_id: candidates[doc_id], reverse=True)

    # -- subscription -----------------------------------------------------

    def subscribe(self, query: DasQuery) -> List[Document]:
        engine = self._engine
        self._order += 1
        state = _WindowQueryState(
            query,
            effective_window(query, engine.config.window_size),
            self._order,
        )
        # Catch-up seeding: score every live window document against the
        # collection statistics *as of now* and cache that score — the
        # same first-encounter caching a post-subscribe arrival gets.
        horizon = self._seq - state.window
        terms = query.terms
        scorer = engine.scorer
        store = engine.store
        for seq, doc_id in self._window:
            if seq <= horizon:
                continue
            document = store.get(doc_id)
            if not any(term in document.vector for term in terms):
                continue
            state.candidates[doc_id] = (
                scorer.trel(terms, document.vector),
                seq,
            )
            state.arrivals.append((seq, doc_id))
        state.result = sorted(
            state.candidates,
            key=lambda doc_id: state.candidates[doc_id],
            reverse=True,
        )[: engine.config.k]
        self._states[query.query_id] = state
        self._index(query)
        for seq, _doc_id in state.arrivals:
            self._expiry.setdefault(seq + state.window, []).append(
                query.query_id
            )
        return [store.get(doc_id) for doc_id in state.result]

    def unsubscribe(self, query: DasQuery) -> None:
        del self._states[query.query_id]
        for term in set(query.terms):
            ids = self._term_queries.get(term)
            if ids is None:
                continue
            ids.discard(query.query_id)
            if not ids:
                del self._term_queries[term]
        # Expiry-schedule entries for this query go stale; publish
        # drops them when their bucket falls due.

    def _index(self, query: DasQuery) -> None:
        for term in set(query.terms):
            self._term_queries.setdefault(term, set()).add(query.query_id)

    # -- document processing ----------------------------------------------

    def publish(self, document: Document) -> List[Notification]:
        engine = self._engine
        if document.created_at > engine.clock.now:
            engine.clock.advance_to(document.created_at)
        engine.stats.add(document.vector)
        engine.store.add(document)
        engine.counters.docs_published += 1
        self._seq += 1
        seq = self._seq
        self._window.append((seq, document.doc_id))
        while len(self._window) > engine.config.window_size:
            self._window.popleft()

        notifications: List[Notification] = []
        vector = document.vector
        k = engine.config.k
        store = engine.store
        counters = engine.counters
        # Affected queries only: the ones with a candidate falling due at
        # this seq (expiry schedule) plus the ones sharing a term with the
        # document (term index).  Every other query's state is provably
        # untouched by the naive every-state walk, so skipping it cannot
        # change behaviour.  Subscription order is preserved for byte-
        # identical notification interleaving.
        matched: Set[int] = set()
        if vector:
            for term in vector.terms():
                ids = self._term_queries.get(term)
                if ids:
                    matched.update(ids)
        due = self._expiry.pop(seq, None)
        affected = matched
        if due:
            states = self._states
            affected = matched.union(q for q in due if q in states)
        for query_id in sorted(
            affected, key=lambda q: self._states[q].order
        ):
            state = self._states[query_id]
            self._expire(state, seq, notifications)
            if query_id not in matched:
                continue
            query = state.query
            counters.queries_evaluated += 1
            score = engine.scorer.trel(query.terms, vector)
            state.candidates[document.doc_id] = (score, seq)
            state.arrivals.append((seq, document.doc_id))
            self._expiry.setdefault(seq + state.window, []).append(query_id)
            result = state.result
            if len(result) < k:
                result.append(document.doc_id)
                self._resort(state)
                counters.matches += 1
                notifications.append(
                    Notification(query.query_id, document, None)
                )
                continue
            worst_id = result[-1]
            if (score, seq) > state.candidates[worst_id]:
                # The displaced member stays in the candidate buffer: it
                # can be promoted back when a newer member expires.
                result[-1] = document.doc_id
                self._resort(state)
                counters.matches += 1
                notifications.append(
                    Notification(
                        query.query_id, document, store.get(worst_id)
                    )
                )
        return notifications

    def _expire(
        self,
        state: _WindowQueryState,
        seq_now: int,
        notifications: List[Notification],
    ) -> None:
        """Age out candidates past the query's window; re-select for any
        expiring top-k member from the retained candidate buffer."""
        horizon = seq_now - state.window
        arrivals = state.arrivals
        if not arrivals or arrivals[0][0] > horizon:
            return
        engine = self._engine
        expired_members: List[int] = []
        while arrivals and arrivals[0][0] <= horizon:
            _seq, doc_id = arrivals.popleft()
            state.candidates.pop(doc_id, None)
            engine.counters.window_expiries += 1
            try:
                state.result.remove(doc_id)
            except ValueError:
                continue
            expired_members.append(doc_id)
        if not expired_members:
            return
        members = set(state.result)
        for expired_id in expired_members:
            best_id = None
            best_key = None
            for doc_id, key in state.candidates.items():
                if doc_id in members:
                    continue
                if best_key is None or key > best_key:
                    best_key = key
                    best_id = doc_id
            if best_id is None:
                continue  # shrink silently: nothing retained to promote
            state.result.append(best_id)
            members.add(best_id)
            engine.counters.window_promotions += 1
            notifications.append(
                Notification(
                    state.query.query_id,
                    engine.store.get(best_id),
                    engine.store.get(expired_id),
                )
            )
        self._resort(state)

    # -- views ------------------------------------------------------------

    def _state_of(self, query_id: int) -> _WindowQueryState:
        return self._states[query_id]

    def results(self, query_id: int) -> List[Document]:
        state = self._state_of(query_id)
        store = self._engine.store
        return [store.get(doc_id) for doc_id in state.result]

    def current_dr(self, query_id: int) -> float:
        state = self._state_of(query_id)
        return sum(
            state.candidates[doc_id][0] for doc_id in state.result
        )

    # -- persistence ------------------------------------------------------

    def checkpoint_state(self) -> Dict:
        return {
            "seq": self._seq,
            "window": [[seq, doc_id] for seq, doc_id in self._window],
            "queries": {
                str(query_id): {
                    "window": state.window,
                    "candidates": [
                        [doc_id, score, seq]
                        for seq, doc_id in state.arrivals
                        for score, _seq in (state.candidates[doc_id],)
                    ],
                    "result": list(state.result),
                }
                for query_id, state in self._states.items()
            },
        }

    def restore_state(self, state: Dict) -> None:
        engine = self._engine
        self._seq = int(state["seq"])
        self._window = deque(
            (int(seq), int(doc_id)) for seq, doc_id in state["window"]
        )
        self._states = {}
        self._order = 0
        self._term_queries = {}
        self._expiry = {}
        for query_id, query in engine._queries.items():
            row = state["queries"][str(query_id)]
            self._order += 1
            qstate = _WindowQueryState(query, int(row["window"]), self._order)
            for doc_id, score, seq in row["candidates"]:
                qstate.candidates[int(doc_id)] = (float(score), int(seq))
                qstate.arrivals.append((int(seq), int(doc_id)))
                self._expiry.setdefault(
                    int(seq) + qstate.window, []
                ).append(query_id)
            qstate.result = [int(doc_id) for doc_id in row["result"]]
            self._states[query_id] = qstate
            self._index(query)

    # -- invariants --------------------------------------------------------

    def check_invariants(self) -> List[str]:
        violations: List[str] = []
        k = self._engine.config.k
        if len(self._window) > self._engine.config.window_size:
            violations.append(
                f"global window holds {len(self._window)} documents, "
                f"capacity {self._engine.config.window_size}"
            )
        for query_id, state in self._states.items():
            horizon = self._seq - state.window
            if len(state.result) > k:
                violations.append(
                    f"query {query_id} result has {len(state.result)} > k"
                )
            for doc_id in state.result:
                if doc_id not in state.candidates:
                    violations.append(
                        f"query {query_id} result member {doc_id} is not "
                        "a retained candidate"
                    )
            for doc_id, (_score, seq) in state.candidates.items():
                if seq <= horizon:
                    violations.append(
                        f"query {query_id} retains expired candidate "
                        f"{doc_id} (seq {seq} <= horizon {horizon})"
                    )
            # The result must be exactly the top-k of the candidates.
            expected = sorted(
                state.candidates,
                key=lambda doc_id: state.candidates[doc_id],
                reverse=True,
            )[:k]
            if state.result != expected:
                violations.append(
                    f"query {query_id} result {state.result} is not the "
                    f"top-k of its candidate buffer {expected}"
                )
        return violations


# ---------------------------------------------------------------------------
# Spatial-keyword strategy


class _SpatialQueryState:
    """Per-query spatial state: cached member scores + top-k ordering."""

    __slots__ = ("query", "cell", "scores", "result")

    def __init__(self, query: DasQuery, cell: Tuple[int, int]) -> None:
        self.query = query
        self.cell = cell
        #: doc_id -> composed score, members only.
        self.scores: Dict[int, float] = {}
        #: Top-k doc ids, best first by (score, doc_id) descending.
        self.result: List[int] = []


class SpatialStrategy(Strategy):
    """Grid-pruned spatial-keyword top-k."""

    mode = "spatial"

    def __init__(self, engine) -> None:
        super().__init__(engine)
        self._grid = engine.config.spatial_cells
        #: (ix, iy) -> query ids located in the cell, ascending.
        self._cells: Dict[Tuple[int, int], List[int]] = {}
        #: (ix, iy) -> cached min worst-member score (the Eq. 12-style
        #: threshold); invalidated whenever a member result changes.
        self._thresholds: Dict[Tuple[int, int], float] = {}
        self._states: Dict[int, _SpatialQueryState] = {}

    # -- grid -------------------------------------------------------------

    def _cell_of(self, location: Tuple[float, float]) -> Tuple[int, int]:
        grid = self._grid
        return (
            min(int(location[0] * grid), grid - 1),
            min(int(location[1] * grid), grid - 1),
        )

    def _cell_bounds(
        self, cell: Tuple[int, int]
    ) -> Tuple[float, float, float, float]:
        grid = self._grid
        return (
            cell[0] / grid,
            cell[1] / grid,
            (cell[0] + 1) / grid,
            (cell[1] + 1) / grid,
        )

    def _cell_threshold(self, cell: Tuple[int, int]) -> float:
        """Minimum worst-member score over the cell's *full* queries;
        ``-inf`` while any member query is still filling (it admits
        every matching document, so the cell can never be skipped)."""
        try:
            return self._thresholds[cell]
        except KeyError:
            pass
        k = self._engine.config.k
        threshold = float("inf")
        for query_id in self._cells[cell]:
            state = self._states[query_id]
            if len(state.result) < k:
                threshold = _NEG_INF
                break
            worst = state.scores[state.result[-1]]
            if worst < threshold:
                threshold = worst
        self._thresholds[cell] = threshold
        return threshold

    def _resort(self, state: _SpatialQueryState) -> None:
        scores = state.scores
        state.result.sort(
            key=lambda doc_id: (scores[doc_id], doc_id), reverse=True
        )

    # -- subscription -----------------------------------------------------

    def check_subscribe(self, query: DasQuery) -> None:
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

    def subscribe(self, query: DasQuery) -> List[Document]:
        engine = self._engine
        cell = self._cell_of(query.location)
        state = _SpatialQueryState(query, cell)
        # Seed from the newest stored matching documents, like the decay
        # mode's initializer, but ranked by the composed spatial score.
        seeds = engine.store.recent_matching(
            query.terms, engine.config.init_scan_limit
        )
        for document in seeds:
            state.scores[document.doc_id] = self._score(query, document)
        state.result = sorted(
            state.scores,
            key=lambda doc_id: (state.scores[doc_id], doc_id),
            reverse=True,
        )[: engine.config.k]
        state.scores = {
            doc_id: state.scores[doc_id] for doc_id in state.result
        }
        self._states[query.query_id] = state
        self._cells.setdefault(cell, []).append(query.query_id)
        self._thresholds.pop(cell, None)
        return [engine.store.get(doc_id) for doc_id in state.result]

    def unsubscribe(self, query: DasQuery) -> None:
        state = self._states.pop(query.query_id)
        members = self._cells[state.cell]
        members.remove(query.query_id)
        if not members:
            del self._cells[state.cell]
        self._thresholds.pop(state.cell, None)

    # -- scoring ----------------------------------------------------------

    def _score(self, query: DasQuery, document: Document) -> float:
        engine = self._engine
        trel = engine.scorer.trel(query.terms, document.vector)
        proximity = spatial_proximity(query.location, document.location)
        return spatial_score(
            proximity, trel, engine.config.spatial_weight
        )

    # -- document processing ----------------------------------------------

    def publish(self, document: Document) -> List[Notification]:
        engine = self._engine
        if document.created_at > engine.clock.now:
            engine.clock.advance_to(document.created_at)
        engine.stats.add(document.vector)
        engine.store.add(document)
        engine.counters.docs_published += 1
        notifications: List[Notification] = []
        vector = document.vector
        if not vector:
            return notifications
        # TRel̃ upper bound: every PS factor is <= 1 and a matching query
        # shares at least one document term, so the largest document-term
        # PS dominates the text relevance of every reachable query
        # (the Eq. 18 argument).
        trel_upper = max(
            engine.scorer.ps(vector, term) for term in vector.terms()
        )
        weight = engine.config.spatial_weight
        k = engine.config.k
        counters = engine.counters
        for cell in sorted(self._cells):
            proximity_upper = cell_proximity_upper_bound(
                self._cell_bounds(cell), document.location
            )
            if spatial_cell_filters_out(
                proximity_upper,
                trel_upper,
                self._cell_threshold(cell),
                weight,
            ):
                counters.cells_skipped += 1
                continue
            counters.cells_visited += 1
            for query_id in self._cells[cell]:
                state = self._states[query_id]
                query = state.query
                if not any(t in vector for t in query.terms):
                    continue
                counters.queries_evaluated += 1
                score = self._score(query, document)
                result = state.result
                if len(result) < k:
                    state.scores[document.doc_id] = score
                    result.append(document.doc_id)
                    self._resort(state)
                    counters.matches += 1
                    notifications.append(
                        Notification(query_id, document, None)
                    )
                    self._thresholds.pop(cell, None)
                    continue
                worst_id = result[-1]
                if score > state.scores[worst_id] + TIE_EPSILON:
                    del state.scores[worst_id]
                    state.scores[document.doc_id] = score
                    result[-1] = document.doc_id
                    self._resort(state)
                    counters.matches += 1
                    notifications.append(
                        Notification(
                            query_id,
                            document,
                            engine.store.get(worst_id),
                        )
                    )
                    self._thresholds.pop(cell, None)
        return notifications

    # -- views ------------------------------------------------------------

    def results(self, query_id: int) -> List[Document]:
        state = self._states[query_id]
        store = self._engine.store
        return [store.get(doc_id) for doc_id in state.result]

    def current_dr(self, query_id: int) -> float:
        state = self._states[query_id]
        return sum(state.scores[doc_id] for doc_id in state.result)

    # -- persistence ------------------------------------------------------

    def checkpoint_state(self) -> Dict:
        return {
            "queries": {
                str(query_id): {
                    "result": [
                        [doc_id, state.scores[doc_id]]
                        for doc_id in state.result
                    ]
                }
                for query_id, state in self._states.items()
            }
        }

    def restore_state(self, state: Dict) -> None:
        engine = self._engine
        self._states = {}
        self._cells = {}
        self._thresholds = {}
        for query_id, query in engine._queries.items():
            row = state["queries"][str(query_id)]
            cell = self._cell_of(query.location)
            qstate = _SpatialQueryState(query, cell)
            for doc_id, score in row["result"]:
                qstate.scores[int(doc_id)] = float(score)
                qstate.result.append(int(doc_id))
            self._states[query_id] = qstate
            self._cells.setdefault(cell, []).append(query_id)

    # -- invariants --------------------------------------------------------

    def check_invariants(self) -> List[str]:
        violations: List[str] = []
        engine = self._engine
        k = engine.config.k
        for query_id, state in self._states.items():
            if len(state.result) > k:
                violations.append(
                    f"query {query_id} result has {len(state.result)} > k"
                )
            if self._cell_of(state.query.location) != state.cell:
                violations.append(
                    f"query {query_id} is filed in cell {state.cell}, "
                    f"expected {self._cell_of(state.query.location)}"
                )
            if query_id not in self._cells.get(state.cell, []):
                violations.append(
                    f"query {query_id} missing from its grid cell "
                    f"{state.cell}"
                )
            expected = sorted(
                state.scores,
                key=lambda doc_id: (state.scores[doc_id], doc_id),
                reverse=True,
            )
            if state.result != expected:
                violations.append(
                    f"query {query_id} result ordering {state.result} "
                    f"!= score ordering {expected}"
                )
            for doc_id in state.result:
                document = engine.store.get(doc_id)
                if not any(
                    t in document.vector for t in state.query.terms
                ):
                    violations.append(
                        f"query {query_id} member {doc_id} shares no "
                        "keyword with the query"
                    )
        # Cached thresholds must match a fresh recomputation.
        for cell, cached in list(self._thresholds.items()):
            self._thresholds.pop(cell)
            if self._cell_threshold(cell) != cached:
                violations.append(
                    f"cell {cell} cached threshold {cached} is stale "
                    f"(exact {self._thresholds[cell]})"
                )
        return violations
