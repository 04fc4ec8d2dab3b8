"""Micro-batch formation for the ingestion matcher: drain to the cap.

The matcher turns the ingestion queue into micro-batches for
``publish_batch``.  The rule is the group-commit one: a batch is
*everything already queued* when the matcher comes back for more, up to
``ServerConfig.max_batch_size`` — never a wait for more to arrive.  An
idle server therefore matches batches of one at single-document latency,
and a busy one amortises the per-batch costs (one event-log
``append_many``/fsync, one executor hop, one ``publish_batch``, one
routing pass) over whatever piled up while the previous batch matched.
There is no target to ramp: the backlog *is* the batch size.

A non-publish item ends the batch (control operations are barriers) and
runs right after it, so the dequeue order stays the accepted order.  The
drain itself is a few lines of ``ServerRuntime._matcher_loop``; every
realised batch size is recorded in a
:class:`~repro.metrics.instrumentation.BatchHistogram` for the admin
stats surface.
"""

from __future__ import annotations

from repro.metrics.instrumentation import BatchHistogram

__all__ = ["BatchHistogram"]
