"""Invariant monitor + instrumented engine for the simulation harness.

The monitor audits the paper's correctness obligations after every
accepted operation:

``size``
    ``|q.R| <= k`` for every live result set, entries in stream order
    (Definition 2 caps the result size; ids are assigned by creation
    time, Definition 1, so entries must be oldest-first).
``lemma1``
    Every replacement strictly improved the diversity-aware relevance:
    ``dr_q(d_n) > dr_q(q.d_e)`` (Lemma 1 reduces the Def. 3 comparison
    to exactly this).  The left side is recomputed from scratch
    (cosines of ``d_n`` against the kept entries); the right side is
    the pre-publish oldest entry's cached values.
``sim_acc``
    Eq. 24 where Eq. 25 reads it: for every full query a publish
    touched, the oldest entry's accumulated similarity equals the
    brute-force ``Σ cosine(d_e, r)`` over the newer entries within
    1e-9 — independently of the Lemma 1 audit, so a wrong promotion
    value cannot hide behind a decision that happened to come out right.
    The same check holds the table's kept thresholds to the reference
    forms exactly (``==``): ``kept_rel · T(d_e) + kept_div`` is
    ``dr_oldest`` and ``kept_rel + kept_div`` is ``static_dr_oldest``.
``floor``
    The bound in front of the Lemma 6 dot: for every full query a
    publish reached and each of its keywords in the document, the AW
    weight the keyword floor reads is not negative and equals
    ``Σ tf_r(t)/‖r‖`` over the summarised rows recomputed from scratch
    (1e-9), and ``similarity_floor(t, d_n)`` does not exceed the
    brute-force ``Σ cosine(d_n, r)`` over the rows behind the oldest —
    an over-estimated floor would reject documents Def. 3 accepts.
``warmup``
    Summaries start at fill: every result set below ``k`` a publish
    touched is its rows — no aggregated-weight table, no row on the R1
    side or holding ``Φ_max``, no accumulated similarity.
``bounds``
    ``FT̃_b`` (Eq. 12, Lemma 2) never exceeds the exact minimum
    threshold of the block's filled members — the soundness direction
    that makes group filtering skip-safe.
``oracle``
    Result sets equal the :class:`~repro.baselines.naive.NaiveEngine`
    fed the same ops — the end-to-end guarantee that no bound
    (``FT̃_b``, ``TRel̃_max``, ``Sim̃_min``) ever wrongly skipped a
    delivery.
``telemetry``
    The telemetry ledger stays coherent under faults: publish spans
    balance (started = finished + aborted), work counters never move
    backwards, every stage histogram advances by exactly one
    observation per finished span, and the bounded effectiveness
    ratios stay within [0, 1].  Skipped when the engine carries no
    telemetry.
``eventlog``
    The durability tier's offset/DLQ obligations
    (:meth:`InvariantMonitor.check_eventlog`, takes the serving
    runtime): log base <= end, the checkpoint never points past the
    log, retained outboxes hold strictly ascending ``(offset,
    query_id)`` pairs all above the acked floor, and the dead-letter
    accounting is consistent with the DLQ segment.

:class:`InstrumentedEngine` wraps a :class:`DasEngine` so the monitor
sees every document individually (mid-batch) and the ``engine.doc``
injection point can abort a batch halfway through.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.engine import DasEngine
from repro.core.events import Notification
from repro.core.filtering import TIE_EPSILON, block_threshold_lower_bound
from repro.core.query import DasQuery
from repro.core.strategies import make_oracle
from repro.scoring.diversity import diversity_coefficient
from repro.stream.document import Document
from repro.text.vectors import cosine_similarity

_NEG_INF = float("-inf")
#: Allowed gap between the oldest entry's maintained Eq. 24 value and the
#: brute-force sum (float association of the Lemma 6 dot only).
_SIM_ACC_TOLERANCE = 1e-9


class InvariantViolation:
    """One failed invariant check."""

    __slots__ = ("name", "op_index", "detail")

    def __init__(self, name: str, op_index: int, detail: str) -> None:
        self.name = name
        self.op_index = op_index
        self.detail = detail

    def as_dict(self) -> Dict:
        return {
            "name": self.name,
            "op_index": self.op_index,
            "detail": self.detail,
        }

    def __repr__(self) -> str:
        return f"InvariantViolation({self.name}@op{self.op_index}: {self.detail})"


class InvariantMonitor:
    """Checks the paper's invariants against a live :class:`DasEngine`."""

    def __init__(
        self,
        engine: DasEngine,
        with_oracle: bool = True,
        tolerance: float = 1e-6,
    ) -> None:
        self._engine = engine
        #: Mode-matched brute-force reference: NaiveEngine for decay,
        #: WindowOracle/SpatialOracle for the strategy modes.
        self._oracle: Optional[object] = (
            make_oracle(engine.config) if with_oracle else None
        )
        self._tolerance = tolerance
        #: Per-full-query pre-publish snapshot for the Lemma 1 check.
        self._pre: Dict[int, tuple] = {}
        #: Index of the schedule op being executed (set by the driver).
        self.op_index = -1
        self.violations: List[InvariantViolation] = []
        self.checks: Dict[str, int] = {
            "size": 0,
            "lemma1": 0,
            "sim_acc": 0,
            "floor": 0,
            "warmup": 0,
            "bounds": 0,
            "strategy": 0,
            "oracle": 0,
            "telemetry": 0,
            "eventlog": 0,
        }
        self._take_telemetry_baseline()

    @property
    def oracle(self) -> Optional[NaiveEngine]:
        return self._oracle

    def rebind(self, engine: DasEngine) -> None:
        """Point the monitor at a restored engine (crash-recovery replay).

        The per-op oracle cannot be rewound to a checkpoint, so replay
        runs must be created with ``with_oracle=False``; their
        correctness check is final-state equality against an unfailed
        reference run (see the harness).
        """
        if self._oracle is not None:
            raise ValueError(
                "cannot rebind a monitor with a live oracle; crash "
                "scenarios must run with with_oracle=False"
            )
        self._engine = engine
        self._pre.clear()
        # A restored engine starts a fresh telemetry ledger; re-baseline
        # so the histogram-vs-spans delta check compares like with like.
        self._take_telemetry_baseline()

    def _take_telemetry_baseline(self) -> None:
        """Record the telemetry state the delta checks measure against."""
        self._prev_counters = self._engine.counters.as_dict()
        telemetry = getattr(self._engine, "telemetry", None)
        if telemetry is None:
            self._base_spans_finished = 0
            self._base_stage_counts: Dict[str, int] = {}
            return
        snapshot = telemetry.snapshot()
        self._base_spans_finished = snapshot["spans"]["finished"]
        self._base_stage_counts = {
            stage: sum(wire["counts"])
            for stage, wire in snapshot["stages"].items()
        }

    def _record(self, name: str, detail: str) -> None:
        self.violations.append(
            InvariantViolation(name, self.op_index, detail)
        )

    # -- per-document hooks (called by InstrumentedEngine) ------------------

    def before_publish(self, document: Document) -> None:
        """Snapshot the replacement-relevant state of every full query.

        Cheap (no scoring): stores the oldest entry's cached values —
        the right side of the Lemma 1 comparison :meth:`after_publish`
        audits.
        """
        self._pre = {}
        if getattr(self._engine, "strategy", None) is not None:
            # Strategy modes have no decay result tables; their
            # replacement discipline is audited by check_strategy().
            return
        for query_id, result_set in self._engine._result_sets.items():
            if not result_set.is_full:
                continue
            head, trel, sim_acc, _, _ = result_set.rows()[0]
            self._pre[query_id] = (
                head.doc_id,
                trel,
                sim_acc,
                result_set.size - 1,
                head.created_at,
            )

    def after_publish(
        self, document: Document, notifications: Sequence[Notification]
    ) -> None:
        """Verify Lemma 1 and the promoted ``sim_acc`` for every
        replacement, then mirror the oracle."""
        if getattr(self._engine, "strategy", None) is not None:
            if self._oracle is not None:
                self._oracle.publish(document)
            return
        config = self._engine.config
        now = self._engine.clock.now
        coeff = diversity_coefficient(config.alpha, config.k)
        for notification in notifications:
            if notification.replaced is None:
                continue
            self.checks["lemma1"] += 1
            pre = self._pre.get(notification.query_id)
            if pre is None:
                self._record(
                    "lemma1",
                    f"q{notification.query_id} replaced while not full "
                    f"on doc {document.doc_id}",
                )
                continue
            old_id, old_trel, old_sim, pairs, old_created = pre
            if notification.replaced.doc_id != old_id:
                self._record(
                    "lemma1",
                    f"q{notification.query_id} evicted doc "
                    f"{notification.replaced.doc_id}, expected oldest "
                    f"{old_id}",
                )
                continue
            result_set = self._engine._result_sets.get(
                notification.query_id
            )
            if result_set is None or not result_set.size:
                continue
            rows = result_set.rows()
            newest, new_trel = rows[-1][:2]
            if newest.doc_id != document.doc_id:
                self._record(
                    "lemma1",
                    f"q{notification.query_id} newest entry is doc "
                    f"{newest.doc_id}, expected {document.doc_id}",
                )
                continue
            # The similarity mass the engine traded off in dr_q(d_n):
            # d_n against every kept entry, recomputed from scratch.
            sim_sum = sum(
                cosine_similarity(document.vector, row[0].vector)
                for row in rows[:-1]
            )
            dr_new = config.alpha * new_trel + coeff * (
                (config.k - 1) - sim_sum
            )
            recency = self._engine.decay.at(old_created, now)
            dr_old = config.alpha * old_trel * recency + coeff * (
                pairs - old_sim
            )
            if dr_new <= dr_old + TIE_EPSILON - self._tolerance:
                self._record(
                    "lemma1",
                    f"q{notification.query_id} replacement on doc "
                    f"{document.doc_id}: dr_new={dr_new:.9f} does not "
                    f"strictly improve dr_oldest={dr_old:.9f}",
                )
        self._pre = {}
        self._check_sim_acc(document, notifications)
        self._check_floor(document)
        if self._oracle is not None:
            self._oracle.publish(document)

    def _check_sim_acc(
        self, document: Document, notifications: Sequence[Notification]
    ) -> None:
        """Eq. 24 audit of every full result set the publish updated,
        with its kept thresholds; the ones still warming up must hold
        rows and nothing else."""
        engine = self._engine
        now, decay, alpha = engine.clock.now, engine.decay, engine.config.alpha
        for notification in notifications:
            result_set = self._engine._result_sets.get(
                notification.query_id
            )
            if result_set is None:
                continue
            if not result_set.is_full:
                self.checks["warmup"] += 1
                # A warm-up table is its documents and TRels: no summary,
                # no R2 column (even an all-zero one), nothing in rows().
                if (
                    result_set.aggregated_weights is not None
                    or result_set._sim is not None
                    or result_set._flags is not None
                    or any(
                        in_r1 or aw_resident or sim_acc
                        for _, _, sim_acc, in_r1, aw_resident in result_set.rows()
                    )
                ):
                    self._record(
                        "warmup",
                        f"q{notification.query_id} holds filtering state with "
                        f"{result_set.size} of {result_set.k} results",
                    )
                continue
            self.checks["sim_acc"] += 1
            rows = result_set.rows()
            head, _, head_sim = rows[0][:3]
            expected = sum(
                cosine_similarity(head.vector, row[0].vector)
                for row in rows[1:]
            )
            if abs(head_sim - expected) > _SIM_ACC_TOLERANCE:
                self._record(
                    "sim_acc",
                    f"q{notification.query_id} oldest doc "
                    f"{head.doc_id} after doc {document.doc_id}: "
                    f"sim_acc={head_sim!r} != brute-force {expected!r}",
                )
            kept = (result_set.kept_rel, result_set.kept_div)
            reference = (
                result_set.dr_oldest(now, decay, alpha),
                result_set.static_dr_oldest(alpha),
            )
            if None in kept or (
                kept[0] * decay.at(result_set.kept_created, now) + kept[1],
                kept[0] + kept[1],
            ) != reference:
                self._record(
                    "sim_acc",
                    f"q{notification.query_id} kept thresholds {kept!r} "
                    f"after doc {document.doc_id} != reference {reference!r}",
                )

    def _check_floor(self, document: Document) -> None:
        """Keyword-floor audit of every full query the publish reached
        (a skipped block's members hold the same invariant)."""
        vector = document.vector
        for query_id, result_set in self._engine._result_sets.items():
            aw = result_set.aggregated_weights
            if aw is None or not result_set.is_full:
                continue
            kept = result_set.documents()[1:]
            resident = [
                kept_document
                for kept_document, _, _, _, aw_resident in result_set.rows()[1:]
                if aw_resident
            ]
            sim_sum = None
            for term in self._engine._queries[query_id].terms:
                if term not in vector:
                    continue
                self.checks["floor"] += 1
                weight = aw.weight(term)
                expected = sum(
                    summarised.vector.unit_weight(term)
                    for summarised in resident
                )
                if weight < 0.0 or (
                    abs(weight - expected) > _SIM_ACC_TOLERANCE
                ):
                    self._record(
                        "floor",
                        f"q{query_id} AW({term!r})={weight!r} != "
                        f"recomputed {expected!r} on doc {document.doc_id}",
                    )
                    continue
                if sim_sum is None:
                    sim_sum = sum(
                        cosine_similarity(vector, kept_document.vector)
                        for kept_document in kept
                    )
                floor = result_set.similarity_floor(term, vector)
                if floor > sim_sum + _SIM_ACC_TOLERANCE:
                    self._record(
                        "floor",
                        f"q{query_id} floor({term!r})={floor!r} exceeds "
                        f"brute-force {sim_sum!r} on doc {document.doc_id}",
                    )

    def after_subscribe(
        self, query: DasQuery, initial: Sequence[Document]
    ) -> None:
        if self._oracle is None:
            return
        oracle_initial = self._oracle.subscribe(query)
        mine = [doc.doc_id for doc in initial]
        theirs = [doc.doc_id for doc in oracle_initial]
        if mine != theirs:
            self._record(
                "oracle",
                f"q{query.query_id} initial results {mine} != oracle "
                f"{theirs}",
            )

    def after_unsubscribe(self, query_id: int) -> None:
        if self._oracle is not None:
            self._oracle.unsubscribe(query_id)

    # -- whole-state audits -------------------------------------------------

    def check_all(self) -> None:
        self.check_sizes()
        self.check_bounds()
        self.check_strategy()
        self.check_oracle()
        self.check_telemetry()

    def check_strategy(self) -> None:
        """Strategy-supplied invariants (window/spatial modes).

        Each strategy audits its own structural obligations — window
        bounds, candidate-buffer consistency, grid filing, cached
        threshold coherence — through
        :meth:`repro.core.strategies.Strategy.check_invariants`; the
        monitor only collects the reported violations.  No-op for the
        decay mode, whose obligations are the Lemma 1 / Eq. 12 checks
        above.
        """
        strategy = getattr(self._engine, "strategy", None)
        if strategy is None:
            return
        self.checks["strategy"] += 1
        for detail in strategy.check_invariants():
            self._record("strategy", detail)

    def check_sizes(self) -> None:
        """``|q.R| <= k``; for the decay mode also stream-order entries."""
        self.checks["size"] += 1
        k = self._engine.config.k
        if getattr(self._engine, "strategy", None) is not None:
            # Strategy result sets are ranked best-first, not stream
            # ordered; only the size cap is mode-independent.
            for query_id in list(self._engine._queries):
                size = len(self._engine.results(query_id))
                if size > k:
                    self._record(
                        "size", f"q{query_id} holds {size} results, k={k}"
                    )
            return
        for query_id, result_set in self._engine._result_sets.items():
            size = result_set.size
            if size > k:
                self._record(
                    "size", f"q{query_id} holds {size} results, k={k}"
                )
            ids = [document.doc_id for document in result_set.documents()]
            if any(a >= b for a, b in zip(ids, ids[1:])):
                self._record(
                    "size", f"q{query_id} entries out of stream order: {ids}"
                )

    def check_bounds(self) -> None:
        """``FT̃_b`` must lower-bound the exact filled-member threshold.

        Only blocks with clean metadata are audited — refreshing from the
        monitor would perturb the engine's own lazy-refresh schedule.
        ``TRel̃_max`` and ``Sim̃_min`` take the in-flight document as
        input, so their soundness is covered end-to-end by the oracle
        check instead.
        """
        engine = self._engine
        if not engine.config.use_blocks:
            return
        if getattr(engine, "strategy", None) is not None:
            # Strategy modes bypass the inverted file; Eq. 12 block
            # metadata never forms.
            return
        self.checks["bounds"] += 1
        now = engine.clock.now
        alpha = engine.config.alpha
        decay = engine.decay
        result_sets = engine._result_sets
        for term, block in engine.iter_term_blocks():
            if block.meta_dirty:
                continue
            lower = block_threshold_lower_bound(block, decay, now, alpha)
            if lower == _NEG_INF:
                continue
            exact = None
            for query_id in block.query_ids:
                result_set = result_sets.get(query_id)
                if result_set is None or not result_set.is_full:
                    continue
                value = result_set.dr_oldest(now, decay, alpha)
                if exact is None or value < exact:
                    exact = value
            if exact is None:
                self._record(
                    "bounds",
                    f"block({term}, ids={list(block.query_ids)}) has "
                    f"finite FT={lower:.9f} but no filled member",
                )
            elif lower > exact + self._tolerance:
                self._record(
                    "bounds",
                    f"block({term}, ids={list(block.query_ids)}) "
                    f"FT={lower:.9f} exceeds exact threshold "
                    f"{exact:.9f}",
                )

    def check_telemetry(self) -> None:
        """Audit the telemetry ledger (see module docstring).

        Four obligations: spans balance, counter monotonicity, stage
        histograms advance one observation per finished span, bounded
        ratios within [0, 1].  The counter baseline rolls forward each
        check so a violation is reported near the op that caused it.
        """
        counters = self._engine.counters.as_dict()
        for name, value in counters.items():
            previous = self._prev_counters.get(name, 0)
            if value < previous:
                self._record(
                    "telemetry",
                    f"counter {name} moved backwards: "
                    f"{previous} -> {value}",
                )
        self._prev_counters = counters

        telemetry = getattr(self._engine, "telemetry", None)
        if telemetry is None:
            return
        self.checks["telemetry"] += 1
        snapshot = telemetry.snapshot()
        spans = snapshot["spans"]
        if spans["started"] != spans["finished"] + spans["aborted"]:
            self._record(
                "telemetry",
                f"span ledger unbalanced: started={spans['started']} != "
                f"finished={spans['finished']} + "
                f"aborted={spans['aborted']}",
            )
        finished_delta = spans["finished"] - self._base_spans_finished
        for stage, wire in snapshot["stages"].items():
            observed = sum(wire["counts"])
            delta = observed - self._base_stage_counts.get(stage, 0)
            if delta != finished_delta:
                self._record(
                    "telemetry",
                    f"stage {stage} recorded {delta} observations for "
                    f"{finished_delta} finished spans",
                )

        from repro.telemetry import BOUNDED_RATIOS, effectiveness_gauges

        gauges = effectiveness_gauges(counters)
        for name in BOUNDED_RATIOS:
            value = gauges[name]
            if not 0.0 <= value <= 1.0:
                self._record(
                    "telemetry",
                    f"effectiveness ratio {name}={value!r} outside [0, 1]",
                )

    def check_eventlog(self, runtime) -> None:
        """Durability-tier invariants of a serving runtime.

        Duck-typed against :class:`~repro.server.runtime.ServerRuntime`
        (no import — the monitor must not depend on the server layer);
        a no-op when the runtime has no event log.  Audits:

        * log offsets: ``base <= end`` and the checkpoint offset never
          points past the log's end;
        * truncation safety: the base never advanced past the newest
          checkpoint (every un-checkpointed record is still replayable);
        * outboxes: strictly ascending ``(offset, query_id)`` pairs,
          all above the owner's acked floor (no retained entry the
          subscriber already confirmed);
        * DLQ: the registry's dead-letter counters never exceed the
          DLQ segment (every counted entry was durably written) and
          every entry carries a known reason and sane offset.
        """
        log = getattr(runtime, "_eventlog", None)
        if log is None:
            return
        self.checks["eventlog"] += 1
        if log.base > log.end:
            self._record(
                "eventlog", f"log base {log.base} exceeds end {log.end}"
            )
        checkpoint = getattr(runtime, "_checkpoint_offset", -1)
        if checkpoint > log.end:
            self._record(
                "eventlog",
                f"checkpoint offset {checkpoint} is past the log end "
                f"{log.end}",
            )
        if log.base > max(checkpoint, 0):
            self._record(
                "eventlog",
                f"log base {log.base} truncated past the checkpoint "
                f"offset {checkpoint}",
            )
        registry = getattr(runtime, "_registry", None)
        total_dead = 0
        if registry is not None:
            for name in registry.names():
                state = registry.get(name)
                total_dead += state.dead_lettered
                # One publish may notify several of its queries.
                keys = [(e["offset"], e["query_id"]) for e in state.outbox]
                if any(a >= b for a, b in zip(keys, keys[1:])):
                    self._record(
                        "eventlog",
                        f"subscriber {name!r} outbox (offset, query id) "
                        f"pairs not strictly ascending: {keys}",
                    )
                if keys and keys[0][0] <= state.acked:
                    self._record(
                        "eventlog",
                        f"subscriber {name!r} retains offset {keys[0][0]} "
                        f"at or below its acked floor {state.acked}",
                    )
        dlq = getattr(runtime, "_dlq", None)
        if dlq is not None:
            from repro.eventlog.dlq import DLQ_REASONS

            entries = dlq.entries()
            if total_dead > len(entries):
                self._record(
                    "eventlog",
                    f"registry counts {total_dead} dead-lettered entries "
                    f"but the DLQ segment holds only {len(entries)}",
                )
            for entry in entries:
                if entry["reason"] not in DLQ_REASONS:
                    self._record(
                        "eventlog",
                        f"DLQ entry {entry['seq']} has unknown reason "
                        f"{entry['reason']!r}",
                    )
                if entry["offset"] < 0:
                    self._record(
                        "eventlog",
                        f"DLQ entry {entry['seq']} has negative offset "
                        f"{entry['offset']}",
                    )

    def check_oracle(self) -> None:
        """Every result set equals the naive engine's, id for id."""
        if self._oracle is None:
            return
        self.checks["oracle"] += 1
        for query_id in self._engine._queries:
            mine = [
                doc.doc_id for doc in self._engine.results(query_id)
            ]
            theirs = [
                doc.doc_id for doc in self._oracle.results(query_id)
            ]
            if mine != theirs:
                self._record(
                    "oracle",
                    f"q{query_id} results {mine} != oracle {theirs}",
                )


class InstrumentedEngine:
    """Engine proxy: per-document monitor hooks + mid-batch faults.

    Decomposes ``publish_batch`` into sequential ``publish`` calls —
    documented as semantically identical by
    :meth:`DasEngine.publish_batch` — so the ``engine.doc`` injection
    point can fail *between* the documents of one batch and the monitor
    can audit each accepted document individually.  Everything else
    (``store``, ``clock``, ``counters``, private floors) delegates, so
    the serving runtime treats it as a plain engine.
    """

    def __init__(
        self,
        engine: DasEngine,
        monitor: Optional[InvariantMonitor] = None,
        injector=None,
    ) -> None:
        self._inner = engine
        self._monitor = monitor
        self._injector = injector

    @property
    def inner(self) -> DasEngine:
        return self._inner

    @property
    def monitor(self) -> Optional[InvariantMonitor]:
        return self._monitor

    def subscribe(self, query: DasQuery) -> List[Document]:
        initial = self._inner.subscribe(query)
        if self._monitor is not None:
            self._monitor.after_subscribe(query, initial)
        return initial

    def unsubscribe(self, query_id: int) -> None:
        self._inner.unsubscribe(query_id)
        if self._monitor is not None:
            self._monitor.after_unsubscribe(query_id)

    def publish(self, document: Document) -> List[Notification]:
        return self._publish_one(document)

    def publish_batch(self, documents) -> List[Notification]:
        notifications: List[Notification] = []
        for document in documents:
            notifications.extend(self._publish_one(document))
        return notifications

    def _publish_one(self, document: Document) -> List[Notification]:
        if self._injector is not None:
            self._injector.fire("engine.doc")
        if self._monitor is not None:
            self._monitor.before_publish(document)
        notifications = self._inner.publish(document)
        if self._monitor is not None:
            self._monitor.after_publish(document, notifications)
        return notifications

    def results(self, query_id: int) -> List[Document]:
        return self._inner.results(query_id)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)
