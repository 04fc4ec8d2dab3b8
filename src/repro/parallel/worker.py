"""The shard worker process: one DasEngine behind a request pipe.

``worker_main`` is the spawn target — a plain importable module-level
function, so it works under the ``spawn`` start method (the only one
that is safe in a parent that runs threads or an event loop).  The worker
owns exactly one :class:`~repro.core.engine.DasEngine` shard plus a
replica :class:`~repro.text.vocabulary.Vocabulary` that tracks the
parent's master vocabulary through the delta prefixed to every request
(see :mod:`repro.parallel.wire`).

The loop is strictly request/reply over one duplex pipe; the parent
pipelines broadcasts by sending to every worker before reading any
reply, which is where the process-level parallelism comes from.

Documents arrive on one of two transports:

``publish_batch``
    Legacy pickle path — the args carry the document payload tuples.
    Kept for journal replay after a crash, for batches the binary codec
    cannot represent, and as the ``REPRO_DISABLE_SHM`` fallback.
``publish_shm``
    Zero-copy path — the args are ``(offset, length, count)`` into the
    shared-memory ring the worker attached at startup (see
    :mod:`repro.parallel.shm`); the batch is decoded in place.

Both transports observe ``wire_decode`` once per document and
``wire_encode`` once per reply into the telemetry snapshot's ``"wire"``
section, and both reply with the compact per-document segment blob of
:func:`~repro.parallel.wire.encode_notification_segments`.

Fault injection: the parent may hand the *initial* worker a fault-plan
string.  Its ``worker.publish_batch`` point fires once per publish batch
arrival — on either transport, so fault schedules are transport
agnostic; a raising action is **process-fatal** here — the worker exits
hard (``os._exit``), modelling a real crash mid-protocol.  Restarted
workers get no plan, so an injected crash is transient and recovery is
deterministic.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional, Tuple

from repro.core.engine import DasEngine
from repro.errors import InjectedFaultError, ReproError
from repro.parallel.shm import ShmRing
from repro.parallel.wire import (
    decode_document,
    decode_query,
    encode_error,
    encode_notification_segments,
    iter_document_payloads,
)
from repro.persistence.checkpoint import (
    _config_from_dict,
    checkpoint,
    restore,
)
from repro.telemetry import Telemetry
from repro.text.vocabulary import Vocabulary

#: Ops that carry a document batch (and hence fire the batch fault point
#: and the wire-path telemetry), keyed off their transport.
_PUBLISH_OPS = ("publish_batch", "publish_shm")


def worker_main(
    conn,
    config_payload: Dict,
    fault_plan: Optional[str] = None,
    ring_spec: Optional[Tuple[str, int]] = None,
) -> None:
    """Serve engine ops over ``conn`` until "stop" or pipe EOF."""
    if fault_plan:
        # Imported lazily: repro.simulation imports repro.parallel for
        # its crash scenarios, so a module-level import here would cycle.
        from repro.simulation.faults import FaultPlan

        injector = FaultPlan.parse(fault_plan).injector()
    else:
        injector = None
    ring: Optional[ShmRing] = None
    if ring_spec is not None:
        try:
            ring = ShmRing.attach(ring_spec[0], ring_spec[1])
        except (OSError, FileNotFoundError, ValueError):
            ring = None  # publish_shm requests will be rejected politely
    vocab = Vocabulary()
    config = _config_from_dict(config_payload)
    engine = DasEngine(config, telemetry=Telemetry())
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        op = message[0]
        for term in message[1]:  # vocabulary delta, applied before the op
            vocab.add(term)
        args = message[2:]
        if op == "stop":
            conn.send(("ok", None))
            break
        if op == "crash":  # test/chaos helper: die without replying
            os._exit(1)
        try:
            if op in _PUBLISH_OPS and injector is not None:
                try:
                    injector.fire("worker.publish_batch")
                except InjectedFaultError:
                    os._exit(1)  # a crash, not an error reply
            result, engine = _dispatch(engine, vocab, op, args, ring)
        except Exception as exc:  # noqa: BLE001 — every error crosses the pipe
            conn.send(encode_error(exc))
        else:
            conn.send(("ok", result))
    if ring is not None:
        ring.close()
    conn.close()


def _decode_timed(source, vocab: Vocabulary, telemetry) -> list:
    """Decode wire payloads to documents, one ``wire_decode`` obs each.

    ``source`` yields payload tuples; for the shm transport it is the
    lazy in-place parser, so each observation covers that document's
    struct parse *and* vocabulary rebuild — the full off-the-wire cost.
    """
    timer = time.perf_counter
    iterator = iter(source)
    documents = []
    while True:
        started = timer()
        try:
            payload = iterator.__next__()
        except StopIteration:
            break
        document = decode_document(payload, vocab)
        if telemetry is not None:
            telemetry.observe_wire("wire_decode", timer() - started)
        documents.append(document)
    return documents


def _publish(engine: DasEngine, vocab: Vocabulary, source):
    """Shared tail of both publish transports: decode, publish, reply."""
    telemetry = engine.telemetry
    documents = _decode_timed(source, vocab, telemetry)
    segments = engine.publish_batch_segmented(documents)
    started = time.perf_counter()
    blob = encode_notification_segments(segments)
    if telemetry is not None:
        telemetry.observe_wire("wire_encode", time.perf_counter() - started)
    return blob


def _dispatch(
    engine: DasEngine,
    vocab: Vocabulary,
    op: str,
    args,
    ring: Optional[ShmRing],
):
    """Execute one op; returns (result, possibly-replaced engine)."""
    if op == "publish_batch":
        return _publish(engine, vocab, args[0]), engine
    if op == "publish_shm":
        if ring is None:
            raise ReproError("worker has no shared-memory ring attached")
        offset, length, _count = args
        view = ring.view(offset, length)
        try:
            return (
                _publish(engine, vocab, iter_document_payloads(view)),
                engine,
            )
        finally:
            view.release()
    if op == "subscribe":
        options = args[2] if len(args) > 2 else None
        query = decode_query(args[0], args[1], vocab, options)
        initial = engine.subscribe(query)
        return [document.doc_id for document in initial], engine
    if op == "unsubscribe":
        engine.unsubscribe(args[0])
        return None, engine
    if op == "results":
        return [d.doc_id for d in engine.results(args[0])], engine
    if op == "current_dr":
        return engine.current_dr(args[0]), engine
    if op == "counters":
        return engine.counters, engine
    if op == "telemetry":
        return engine.telemetry_snapshot(), engine
    if op == "load":
        return {
            "queries": engine.query_count,
            "postings": engine._index.posting_count,
            "documents": len(engine.store),
        }, engine
    if op == "checkpoint":
        return checkpoint(engine), engine
    if op == "restore":
        payload = args[0]
        if payload is None:
            return None, DasEngine(engine.config, telemetry=Telemetry())
        restored = restore(payload)
        restored.attach_telemetry(Telemetry())
        return None, restored
    raise ValueError(f"unknown worker op {op!r}")
