"""Server-wide durable event log: WAL, catch-up, DLQ, throttling.

The reliability tier (DESIGN.md §14).  Every accepted op — publish,
subscribe, unsubscribe, ack — is appended to a segmented write-ahead
:class:`EventLog` under one monotonic global offset *before* the engine
matches it; recovery is the newest checkpoint plus a replay of the
logged suffix (:func:`recover`).  On top of the log:

* :class:`SubscriberRegistry` — durable subscriber identities with
  per-subscriber acked offsets and retained outboxes, powering the
  ``resume`` protocol op (reconnect/late-join catch-up);
* :class:`DeadLetterQueue` — notifications that failed delivery too many
  times, or overflowed a retained outbox, inspectable via ``repro dlq``;
* :class:`TokenBucket` — per-client ingest throttling for queue-based
  load leveling.
"""

from repro.eventlog.dlq import DLQ_FILENAME, DeadLetterQueue, read_dlq
from repro.eventlog.records import (
    RECORD_KINDS,
    ack_record,
    publish_record,
    subscribe_record,
    unsubscribe_record,
    validate_record,
)
from repro.eventlog.recovery import (
    RecoveredState,
    apply_publishes,
    apply_record,
    check_record,
    checkpoint_path,
    latest_checkpoint,
    recover,
    write_checkpoint,
)
from repro.eventlog.segments import EventLog, segment_name
from repro.eventlog.subscribers import SubscriberRegistry, SubscriberState
from repro.eventlog.throttle import TokenBucket

__all__ = [
    "DLQ_FILENAME",
    "DeadLetterQueue",
    "EventLog",
    "RECORD_KINDS",
    "RecoveredState",
    "SubscriberRegistry",
    "SubscriberState",
    "TokenBucket",
    "ack_record",
    "apply_publishes",
    "apply_record",
    "check_record",
    "checkpoint_path",
    "latest_checkpoint",
    "publish_record",
    "read_dlq",
    "recover",
    "segment_name",
    "subscribe_record",
    "unsubscribe_record",
    "validate_record",
    "write_checkpoint",
]
