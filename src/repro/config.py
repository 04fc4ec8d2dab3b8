"""Engine configuration.

All tunables from the paper's Table 5 live here, plus the switches that
select between the evaluated methods (GIFilter / IFilter / BIRT / IRT).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.errors import ConfigurationError

#: Sentinel for "no memory budget" on aggregated term weight summaries.
UNLIMITED = -1

#: Ranking/expiry strategy modes (see ``repro.core.strategies``).
#:
#: ``decay``
#:     The paper's scenario: time-decayed text relevance with diversity
#:     (Eq. 1/4), results only leave when replaced by a better document.
#: ``window``
#:     Count-based sliding window: only the newest ``window_size``
#:     documents are alive; an expiring top-k member triggers
#:     re-selection from a retained candidate buffer.
#: ``spatial``
#:     Spatial-keyword: distance-weighted proximity composed with text
#:     relevance, queries carry a location, candidate grid cells are
#:     pruned by an Eq. 12-style upper bound.
STRATEGY_MODES = ("decay", "window", "spatial")


@dataclass(frozen=True)
class EngineConfig:
    """Configuration for a DAS publish/subscribe engine.

    Parameters mirror Table 5 of the paper.  The memory budget ``phi_max``
    is expressed in *aggregated-weight entries* (term, weight) rather than
    bytes so that behaviour does not depend on the host's pointer width;
    the paper's 0.5 GB default maps to roughly two million entries on its
    hardware.
    """

    #: Number of results maintained per query (paper default 30).
    k: int = 30
    #: Relevance/diversity trade-off, Eq. 1 (paper default 0.3).
    alpha: float = 0.3
    #: Jelinek-Mercer smoothing parameter for ``PS`` (Eq. after Eq. 3).
    smoothing_lambda: float = 0.5
    #: Exponential decay base ``B`` of Eq. 4.  Values > 1 decay; 1 disables
    #: recency.  See :meth:`with_decay_scale` for the paper's
    #: ``B^{-Δt_sim} = scale`` parameterisation.
    decay_base: float = 1.0001
    #: Maximum postings per block, ``p_max`` (paper default 256).
    block_size: int = 256
    #: MCS rebuild threshold ``δ_s`` (Section 7.1, paper default 0.5).
    delta_s: float = 0.5
    #: Budget for aggregated term weight summaries, in entries
    #: (``Φ_max``).  ``UNLIMITED`` disables the R1/R2 split.
    phi_max: int = UNLIMITED

    # --- Method switches (GIFilter = all True; see DESIGN.md §3) ---
    #: Partition postings lists into blocks and skip whole blocks
    #: (BIRT / IFilter / GIFilter).
    use_blocks: bool = True
    #: Maintain MCS summaries and apply the group filtering condition
    #: (GIFilter only).
    use_group_filter: bool = True
    #: Maintain aggregated term weight summaries and use Lemma 6 for the
    #: similarity sum (IFilter / GIFilter).
    use_agg_weights: bool = True

    #: Number of most-recent matching documents scanned when initialising
    #: the result set of a freshly subscribed query.
    init_scan_limit: int = 256

    # --- Strategy seam (repro.core.strategies, DESIGN.md §16) ---
    #: Ranking/expiry mode, one of :data:`STRATEGY_MODES`.
    mode: str = "decay"
    #: Count-based window (``mode="window"``): global retention bound and
    #: the cap on any query's per-subscription ``window`` option.
    window_size: int = 64
    #: Grid resolution per axis (``mode="spatial"``): the unit square of
    #: query locations is cut into ``spatial_cells x spatial_cells``.
    spatial_cells: int = 8
    #: Weight of spatial proximity in the combined score
    #: (``mode="spatial"``): ``score = w * proximity + (1 - w) * trel``.
    spatial_weight: float = 0.5

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.smoothing_lambda <= 1.0:
            raise ConfigurationError(
                f"smoothing_lambda must be in [0, 1], got {self.smoothing_lambda}"
            )
        if self.decay_base < 1.0:
            raise ConfigurationError(
                f"decay_base must be >= 1 (>=1 decays with age), got {self.decay_base}"
            )
        if self.block_size < 1:
            raise ConfigurationError(
                f"block_size must be >= 1, got {self.block_size}"
            )
        if not 0.0 <= self.delta_s <= 1.0:
            raise ConfigurationError(
                f"delta_s must be in [0, 1], got {self.delta_s}"
            )
        if self.phi_max != UNLIMITED and self.phi_max < 0:
            raise ConfigurationError(
                f"phi_max must be >= 0 or UNLIMITED, got {self.phi_max}"
            )
        if self.init_scan_limit < 0:
            raise ConfigurationError(
                f"init_scan_limit must be >= 0, got {self.init_scan_limit}"
            )
        if self.use_group_filter and not self.use_blocks:
            raise ConfigurationError(
                "group filtering requires the block-based inverted file "
                "(use_blocks=True)"
            )
        if self.mode not in STRATEGY_MODES:
            raise ConfigurationError(
                f"mode must be one of {STRATEGY_MODES}, got {self.mode!r}"
            )
        if self.window_size < 1:
            raise ConfigurationError(
                f"window_size must be >= 1, got {self.window_size}"
            )
        if self.spatial_cells < 1:
            raise ConfigurationError(
                f"spatial_cells must be >= 1, got {self.spatial_cells}"
            )
        if not 0.0 <= self.spatial_weight <= 1.0:
            raise ConfigurationError(
                f"spatial_weight must be in [0, 1], got {self.spatial_weight}"
            )

    def with_decay_scale(self, scale: float, horizon: float) -> "EngineConfig":
        """Return a copy whose decay base satisfies ``B**(-horizon) == scale``.

        This mirrors the paper's experimental parameterisation, where the
        "decaying scale" is the recency value a document retains after the
        whole simulation duration ``Δt_sim`` (Section 8.3).
        """
        if not 0.0 < scale <= 1.0:
            raise ConfigurationError(f"decay scale must be in (0, 1], got {scale}")
        if horizon <= 0.0:
            raise ConfigurationError(f"decay horizon must be > 0, got {horizon}")
        base = scale ** (-1.0 / horizon)
        return replace(self, decay_base=base)

    def evolve(self, **changes: object) -> "EngineConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


#: Slow-consumer policies of the serving runtime's delivery sessions.
#:
#: ``block``
#:     Apply backpressure: the matcher waits for queue space, so no
#:     notification is ever lost (at the cost of head-of-line blocking).
#: ``drop_oldest``
#:     Evict the oldest queued message; newest updates win, and the
#:     session counts what it dropped.
#: ``coalesce``
#:     Keep only the latest result-set snapshot per query; intermediate
#:     updates collapse while the consumer lags.
#: ``disconnect``
#:     Close the session; a consumer too slow to keep up is kicked.
SLOW_CONSUMER_POLICIES = ("block", "drop_oldest", "coalesce", "disconnect")

#: Event-log fsync policies (``ServerConfig.eventlog_fsync``): every
#: append call, segment rotation only, or never.
FSYNC_POLICIES = ("always", "batch", "never")

#: Retained notifications per durable subscriber, the one default behind
#: ``ServerConfig.outbox_capacity``, ``SubscriberRegistry`` and ``serve
#: --outbox-capacity``.  Sized well above a subscriber's ack cadence plus
#: the fan-out of one matcher batch (``max_batch_size`` documents can
#: route a few hundred notifications in one step): anything smaller makes
#: overflow dead-letters a function of the server's own batching instead
#: of subscriber lag.  Memory follows the actual backlog, not the bound.
DEFAULT_OUTBOX_CAPACITY = 4096

#: Documents per matcher micro-batch (``ServerConfig.max_batch_size``) and
#: per publish run :func:`repro.eventlog.recover` replays in one call.
DEFAULT_BATCH_SIZE = 64


@dataclass(frozen=True)
class ServerConfig:
    """Configuration for the asyncio serving runtime (``repro.server``).

    Capacities are in messages.  The ingestion queue bounds how far
    publishers can run ahead of the matcher; the outbound capacity bounds
    how far the matcher can run ahead of each subscriber.  The matcher
    runs on the event loop's thread, so served processes, tests and the
    simulation harness all execute the same path; ``time_source`` and
    ``fault_injector`` are the only seams a test substitutes.
    """

    #: Bound of the publish ingestion queue (publishers await space).
    ingest_capacity: int = 1024
    #: Bound of each subscriber session's outbound queue.
    outbound_capacity: int = 64
    #: Cap on a matcher micro-batch (it drains what is queued, up to
    #: this many documents) and on how many requests a TCP connection
    #: reads ahead of its replies.
    max_batch_size: int = DEFAULT_BATCH_SIZE
    #: Default slow-consumer policy for new sessions (per-session
    #: overridable), one of :data:`SLOW_CONSUMER_POLICIES`.
    slow_consumer_policy: str = "block"
    #: Graceful-shutdown deadline (seconds) for flushing the ingestion
    #: queue and the delivery queues.
    drain_timeout: float = 5.0
    #: Bind address of the NDJSON TCP transport.
    host: str = "127.0.0.1"
    #: Bind port of the NDJSON TCP transport (0 = ephemeral).
    port: int = 8765

    # --- Deterministic-simulation hooks (see repro.simulation) ---
    #: Wall-clock stand-in for default publish timestamps and for the
    #: pipeline histograms' durations.  ``None`` stamps with
    #: ``time.time`` and times with ``time.perf_counter``, so a
    #: wall-clock step moves no duration; the simulation harness passes
    #: the ``now`` of a :class:`~repro.stream.clock.SimulationClock` so
    #: timestamps and histograms are a pure function of the op schedule.
    time_source: Optional[Callable[[], float]] = None
    #: Fault-injection hook (:class:`repro.simulation.faults.FaultInjector`
    #: or anything with a ``fire(point)`` method).  ``None`` disables
    #: every injection point at the cost of one attribute check.
    fault_injector: Optional[object] = None

    # --- Durable event log (repro.eventlog, DESIGN.md §14) ---
    #: Directory of the write-ahead event log.  ``None`` disables the
    #: whole durability tier (log, resume, DLQ, checkpoints).  On start
    #: the runtime recovers from the directory's newest checkpoint plus
    #: a replay of the logged suffix.
    eventlog_dir: Optional[str] = None
    #: fsync policy of log appends: ``"always"`` syncs every append
    #: batch, ``"batch"`` syncs on segment rotation only, ``"never"``
    #: leaves flushing to the OS.
    eventlog_fsync: str = "always"
    #: Log entries per segment file before rotating.
    eventlog_segment_entries: int = 512
    #: Write a checkpoint (and truncate the log behind it) every N
    #: appended records.  0 disables automatic checkpoints; explicit
    #: ``checkpoint`` requests still work.
    eventlog_checkpoint_every: int = 0
    #: Retained notifications per durable subscriber; the oldest entry
    #: is dead-lettered on overflow.
    outbox_capacity: int = DEFAULT_OUTBOX_CAPACITY
    #: Redelivery attempts before an un-acked notification is
    #: dead-lettered ("N consecutive delivery failures").
    dlq_max_attempts: int = 3
    #: Per-session publish throttle: sustained publishes/second.  0
    #: disables throttling.
    throttle_rate: float = 0.0
    #: Token-bucket burst allowance when throttling is enabled.
    throttle_burst: int = 8

    def __post_init__(self) -> None:
        if self.ingest_capacity < 1:
            raise ConfigurationError(
                f"ingest_capacity must be >= 1, got {self.ingest_capacity}"
            )
        if self.outbound_capacity < 1:
            raise ConfigurationError(
                f"outbound_capacity must be >= 1, got {self.outbound_capacity}"
            )
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.slow_consumer_policy not in SLOW_CONSUMER_POLICIES:
            raise ConfigurationError(
                f"slow_consumer_policy must be one of {SLOW_CONSUMER_POLICIES}, "
                f"got {self.slow_consumer_policy!r}"
            )
        if self.drain_timeout <= 0.0:
            raise ConfigurationError(
                f"drain_timeout must be > 0, got {self.drain_timeout}"
            )
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(
                f"port must be in [0, 65535], got {self.port}"
            )
        if self.time_source is not None and not callable(self.time_source):
            raise ConfigurationError("time_source must be callable or None")
        if self.fault_injector is not None and not callable(
            getattr(self.fault_injector, "fire", None)
        ):
            raise ConfigurationError(
                "fault_injector must expose a fire(point) method"
            )
        if self.eventlog_fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"eventlog_fsync must be one of {FSYNC_POLICIES}, "
                f"got {self.eventlog_fsync!r}"
            )
        if self.eventlog_segment_entries < 1:
            raise ConfigurationError(
                f"eventlog_segment_entries must be >= 1, "
                f"got {self.eventlog_segment_entries}"
            )
        if self.eventlog_checkpoint_every < 0:
            raise ConfigurationError(
                f"eventlog_checkpoint_every must be >= 0, "
                f"got {self.eventlog_checkpoint_every}"
            )
        if self.outbox_capacity < 1:
            raise ConfigurationError(
                f"outbox_capacity must be >= 1, got {self.outbox_capacity}"
            )
        if self.dlq_max_attempts < 1:
            raise ConfigurationError(
                f"dlq_max_attempts must be >= 1, got {self.dlq_max_attempts}"
            )
        if self.throttle_rate < 0.0:
            raise ConfigurationError(
                f"throttle_rate must be >= 0, got {self.throttle_rate}"
            )
        if self.throttle_burst < 1:
            raise ConfigurationError(
                f"throttle_burst must be >= 1, got {self.throttle_burst}"
            )

    def evolve(self, **changes: object) -> "ServerConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


def gifilter_config(**overrides: object) -> EngineConfig:
    """Configuration for the paper's full method (group + individual)."""
    base = EngineConfig(use_blocks=True, use_group_filter=True, use_agg_weights=True)
    return base.evolve(**overrides) if overrides else base


def ifilter_config(**overrides: object) -> EngineConfig:
    """Configuration for IFilter: blocks + aggregated weights, no MCS."""
    base = EngineConfig(use_blocks=True, use_group_filter=False, use_agg_weights=True)
    return base.evolve(**overrides) if overrides else base


def birt_config(**overrides: object) -> EngineConfig:
    """Configuration for the BIRT baseline (Appendix A.1)."""
    base = EngineConfig(use_blocks=True, use_group_filter=False, use_agg_weights=False)
    return base.evolve(**overrides) if overrides else base


def irt_config(**overrides: object) -> EngineConfig:
    """Configuration for the IRT baseline (Appendix A.1)."""
    base = EngineConfig(use_blocks=False, use_group_filter=False, use_agg_weights=False)
    return base.evolve(**overrides) if overrides else base


#: Factory functions keyed by the method names used throughout the paper.
METHOD_CONFIGS = {
    "GIFilter": gifilter_config,
    "IFilter": ifilter_config,
    "BIRT": birt_config,
    "IRT": irt_config,
}
