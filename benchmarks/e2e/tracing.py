"""Per-layer spans, recorded from the harness around calls into each layer.

``--trace 1`` replaces the public callables listed in :func:`install`
with timing wrappers (nothing under ``src/`` is edited).  Every call
becomes a span ``{name, start, end, parent}``; a layer's *self* time is
its spans' duration minus the part their child spans cover.  A hot
workload makes ~1M spans per run, so spans are folded into per-name
totals as they close and only the spans of the first few measured
documents are kept whole for ``trace-<workload>.json``.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Whole spans are kept from the start of the measured phase up to this
#: many (about the first ten documents of a hot workload).
MAX_SAMPLED_SPANS = 5000


class Tracer:
    def __init__(self) -> None:
        #: span name -> [calls, total seconds, seconds inside child spans]
        self.totals: Dict[str, List[float]] = {}
        #: span name -> payload bytes seen by wrappers given a ``size``.
        self.bytes: Dict[str, int] = {}
        #: Closed spans kept whole, in closing order.
        self.sampled: List[Tuple[str, float, float, int, int]] = []
        self.sampling = False
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def timed(self, name: str, fn: Callable, size: Optional[Callable] = None):
        """``fn`` wrapped so that each call is one span called ``name``."""
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        local = self._local
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                inside = stack.pop()
                elapsed = end - start
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += inside
                if stack:
                    stack[-1] += elapsed
                if tracer.sampling:
                    if len(tracer.sampled) >= MAX_SAMPLED_SPANS:
                        tracer.sampling = False
                    tracer.sampled.append(
                        (name, start, end, len(stack), threading.get_ident())
                    )
            if size is not None:
                tracer.bytes[name] = tracer.bytes.get(name, 0) + size(
                    args, result
                )
            return result

        return wrapper

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        size: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by its timed version until :meth:`uninstall`."""
        # ``__dict__`` keeps a classmethod whole; getattr would bind it.
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            timed = classmethod(self.timed(name, original.__func__, size))
        else:
            timed = self.timed(name, original, size)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, timed)

    def patch_by_caller(
        self,
        owner: object,
        attr: str,
        callers: Tuple[str, ...],
        name: str,
        other_name: str,
        size: Callable,
    ) -> None:
        """Like :meth:`patch`, but calls made from functions named in
        ``callers`` are spans called ``name`` and all others ``other_name``
        (server and client share ``encode_line``/``decode_line``)."""
        original = getattr(owner, attr)
        inside = self.timed(name, original, size)
        outside = self.timed(other_name, original, size)
        frame = sys._getframe

        def dispatch(*args, **kwargs):
            if frame(1).f_code.co_name in callers:
                return inside(*args, **kwargs)
            return outside(*args, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, dispatch)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------

    def take(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, total_s, self_s)`` since the last take; resets."""
        taken = {}
        for name, totals in self.totals.items():
            calls, total, inside = totals
            taken[name] = (int(calls), total, total - inside)
            totals[0], totals[1], totals[2] = 0, 0.0, 0.0
        return taken

    def take_bytes(self) -> Dict[str, int]:
        taken, self.bytes = self.bytes, {}
        return taken

    def span_cost(self) -> float:
        """Seconds one span adds, calibrated on a no-op call."""
        noop = self.timed("trace.calibration", lambda: None)
        bare = lambda: None  # noqa: E731
        rounds = 20000
        start = time.perf_counter()
        for _ in range(rounds):
            noop()
        traced = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(rounds):
            bare()
        plain = time.perf_counter() - start
        del self.totals["trace.calibration"]
        return max(0.0, (traced - plain) / rounds)

    def sampled_spans(self) -> List[Dict[str, object]]:
        """The kept spans as ``{id, name, start, end, parent}`` records.

        Spans are stored as they close, so a span's parent is the next
        span of the same thread that closes one level up.
        """
        spans = []
        for index, (name, start, end, depth, thread) in enumerate(self.sampled):
            parent = None
            if depth:
                for later in range(index + 1, len(self.sampled)):
                    other = self.sampled[later]
                    if other[4] == thread and other[3] == depth - 1:
                        parent = later
                        break
            spans.append(
                {"id": index, "name": name, "start": start, "end": end,
                 "parent": parent}
            )
        return spans


def install(tracer: Tracer) -> None:
    """Put a span around every named public callable of every layer."""
    import os

    import repro.core.blocks as blocks
    import repro.core.engine as engine
    import repro.server.runtime as runtime
    import repro.server.tcp as tcp
    from repro.core.columnar import QuerySummaryColumns
    from repro.core.flat_postings import FlatPostingsIndex
    from repro.core.inverted_file import QueryInvertedFile
    from repro.core.result_set import QueryResultSet
    from repro.eventlog import EventLog, SubscriberRegistry
    from repro.scoring.relevance import LanguageModelScorer
    from repro.stream.document import Document
    from repro.stream.document_store import DocumentStore

    sites = [
        (engine.DasEngine, "publish", "core.engine.publish"),
        (engine.DasEngine, "publish_batch", "core.engine.publish"),
        (engine.DasEngine, "subscribe", "core.engine.subscribe"),
        (engine.DasEngine, "unsubscribe", "core.engine.unsubscribe"),
        (engine, "select_initial_documents", "core.initializer.scan"),
        (LanguageModelScorer, "trel_from_ps", "scoring.ps"),
        (LanguageModelScorer, "trel", "scoring.ps"),
        (Document, "from_tokens", "text.vectorize"),
        (QueryInvertedFile, "list_for", "core.inverted_file.list_for"),
        (QueryInvertedFile, "insert", "core.inverted_file.insert"),
        (QueryInvertedFile, "remove", "core.inverted_file.remove"),
        (engine, "block_threshold_lower_bound", "core.filtering.group_check"),
        (engine, "block_trel_upper_bound", "core.filtering.group_check"),
        (engine, "block_similarity_lower_bound", "core.filtering.group_check"),
        (engine, "group_filters_out", "core.filtering.group_check"),
        (blocks.PostingsBlock, "refresh_metadata", "core.blocks.refresh"),
        (blocks.PostingsBlock, "refresh_from_columns", "core.blocks.refresh"),
        (blocks.PostingsBlock, "rebuild_mcs", "core.blocks.mcs_rebuild"),
        (blocks.PostingsBlock, "invalidate_mcs_with", "core.mcs.invalidate"),
        (blocks, "greedy_mcs_gen", "core.mcs.greedy"),
        (QueryResultSet, "dr_oldest", "core.result_set.similarity"),
        (QueryResultSet, "similarity_sum", "core.result_set.similarity"),
        (QueryResultSet, "similarities_to", "core.result_set.similarity"),
        (QueryResultSet, "similarities_to_kept", "core.result_set.similarity"),
        (QueryResultSet, "admit", "core.result_set.update"),
        (QueryResultSet, "replace", "core.result_set.update"),
        (FlatPostingsIndex, "prepare", "core.flat_postings.prepare"),
        (QuerySummaryColumns, "update", "core.columnar.update"),
        (DocumentStore, "add", "stream.document_store.add"),
        (DocumentStore, "pin", "stream.document_store.pin"),
        (DocumentStore, "unpin", "stream.document_store.pin"),
        (runtime, "parse_request", "server.protocol.decode"),
        (runtime, "notification_payload", "server.protocol.encode"),
        (runtime, "document_payload", "server.protocol.encode"),
        (SubscriberRegistry, "offer", "eventlog.outbox"),
        (EventLog, "append_many", "eventlog.append"),
        # Waiting for the disk, apart from the append's own work.
        (os, "fsync", "eventlog.fsync"),
    ]
    for owner, attr, name in sites:
        tracer.patch(owner, attr, name)
    server_side = ("_handle_connection", "_write_frame")
    tracer.patch_by_caller(
        tcp, "decode_line", server_side,
        "server.protocol.decode", "loadgen.decode",
        size=lambda args, result: len(args[0]),
    )
    tracer.patch_by_caller(
        tcp, "encode_line", server_side,
        "server.protocol.encode", "loadgen.encode",
        size=lambda args, result: len(result),
    )
