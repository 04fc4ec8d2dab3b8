"""Property tier for the event log (Hypothesis, stateful + functional).

Two stateful machines drive the durable pieces against pure in-memory
models through crash-shaped transitions (reopen, torn tails, segment
truncation, redelivery), checking the invariants the server relies on:

* offset monotonicity and contiguity from the retained base;
* replay idempotence — any number of reopens converges on the model;
* a torn tail never destroys an acknowledged entry;
* outbox ordering (strictly ascending, always above the acked floor)
  and exact dead-letter accounting.

The functional properties pin round-trips: arbitrary record batches
survive arbitrary chunking + reopen, :func:`repro.eventlog.recover`
is a pure function of the directory — two recoveries of the same bytes
produce byte-identical registry snapshots and notification payloads —
and recovering what a durable runtime logged rebuilds the state that
runtime held, whatever ops it was sent (refused ones included).
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.config import ServerConfig
from repro.core.engine import DasEngine
from repro.eventlog import (
    EventLog,
    SubscriberRegistry,
    SubscriberState,
    ack_record,
    publish_record,
    recover,
    subscribe_record,
)
from repro.errors import ReproError
from repro.server import InProcessClient, ServerRuntime
from repro.server.protocol import raise_for_reply
from repro.simulation import InvariantMonitor

VOCAB = ["coffee", "espresso", "beans", "tea", "green", "milk"]

tokens_strategy = st.lists(
    st.sampled_from(VOCAB), min_size=1, max_size=4, unique=True
)


def _publish(doc_id, tokens):
    return publish_record(
        {
            "doc_id": doc_id,
            "created_at": float(doc_id),
            "tf": {token: 1 for token in tokens},
        }
    )


records_strategy = st.builds(
    _publish, st.integers(min_value=0, max_value=99), tokens_strategy
)


class EventLogMachine(RuleBasedStateMachine):
    """Append / crash-reopen / torn-tail / truncate vs a list model; the
    records are read back from the segment files."""

    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="repro-evlog-")
        self.log = None
        self.model = []  # full history; index == offset
        self.model_base = 0

    @initialize(entries=st.integers(min_value=1, max_value=4))
    def open_log(self, entries):
        self.segment_entries = entries
        self.log = EventLog(
            self.directory, fsync="always", segment_entries=entries
        )

    @rule(batch=st.lists(records_strategy, min_size=1, max_size=4))
    def append(self, batch):
        offsets = self.log.append_many(batch)
        assert offsets == list(
            range(len(self.model), len(self.model) + len(batch))
        )
        self.model.extend(batch)

    @rule()
    def crash_and_reopen(self):
        # A crash keeps no in-memory state; with fsync=always every
        # accepted append is already on disk, so closing loses nothing.
        self.log.close()
        self.log = EventLog(
            self.directory,
            fsync="always",
            segment_entries=self.segment_entries,
        )

    @rule(garbage=st.binary(min_size=1, max_size=30))
    def torn_tail_then_reopen(self, garbage):
        # Simulate a crash mid-append: partial junk on the active
        # segment.  Reopen must truncate it away and lose nothing that
        # was acknowledged.
        self.log.close()
        active = max(
            name
            for name in os.listdir(self.directory)
            if name.endswith(".seg")
        )
        with open(os.path.join(self.directory, active), "ab") as handle:
            handle.write(garbage.replace(b"\n", b""))
        self.log = EventLog(
            self.directory,
            fsync="always",
            segment_entries=self.segment_entries,
        )
        assert self.log.torn_dropped <= 1

    @rule(data=st.data())
    def truncate(self, data):
        offset = data.draw(
            st.integers(min_value=0, max_value=len(self.model)),
            label="truncate_to",
        )
        new_base = self.log.truncate_to(offset)
        assert self.model_base <= new_base <= max(offset, self.model_base)
        self.model_base = new_base

    @invariant()
    def retained_equals_model(self):
        if self.log is None:
            return
        assert self.log.base == self.model_base
        assert self.log.end == len(self.model)
        entries = list(self.log.entries_since(self.log.base))
        assert entries == list(enumerate(self.model))[self.model_base :]
        if self.model_base > 0:
            with pytest.raises(ReproError):
                self.log.entries_since(self.model_base - 1)

    def teardown(self):
        if self.log is not None:
            self.log.close()
        shutil.rmtree(self.directory, ignore_errors=True)


TestEventLogMachine = EventLogMachine.TestCase
TestEventLogMachine.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None
)


class RegistryMachine(RuleBasedStateMachine):
    """Offer / ack / replay vs an outbox model with DLQ accounting."""

    MAX_ATTEMPTS = 2
    CAPACITY = 5

    def __init__(self):
        super().__init__()
        self.registry = SubscriberRegistry(
            outbox_capacity=self.CAPACITY, max_attempts=self.MAX_ATTEMPTS
        )
        #: name -> {"acked": int, "outbox": [[offset, attempts], ...]}
        self.model = {}
        self.dead = 0
        self.next_offset = 0

    def _state(self, name):
        return self.model.setdefault(name, {"acked": -1, "outbox": []})

    @rule(name=st.sampled_from(["alice", "bob"]))
    def offer(self, name):
        offset = self.next_offset
        self.next_offset += 1
        self.registry.offer(name, offset, 0, {"offset": offset})
        state = self._state(name)
        if offset > state["acked"]:
            state["outbox"].append([offset, 0])
            if len(state["outbox"]) > self.CAPACITY:
                state["outbox"].pop(0)
                self.dead += 1

    @rule(name=st.sampled_from(["alice", "bob"]), data=st.data())
    def ack(self, name, data):
        offset = data.draw(
            st.integers(min_value=-1, max_value=self.next_offset),
            label="ack_offset",
        )
        self.registry.ack(name, offset)
        state = self._state(name)
        state["acked"] = max(state["acked"], offset)
        state["outbox"] = [
            entry for entry in state["outbox"] if entry[0] > state["acked"]
        ]

    @rule(name=st.sampled_from(["alice", "bob"]))
    def replay(self, name):
        replayed = self.registry.pending(name)
        state = self._state(name)
        survivors = []
        expected = []
        for offset, attempts in state["outbox"]:
            attempts += 1
            if attempts > self.MAX_ATTEMPTS:
                self.dead += 1
                continue
            survivors.append([offset, attempts])
            expected.append(offset)
        state["outbox"] = survivors
        assert [entry["offset"] for entry in replayed] == expected

    @invariant()
    def outboxes_match_model(self):
        for name, state in self.model.items():
            actual = self.registry.get(name)
            assert actual is not None
            assert actual.acked == state["acked"]
            offsets = [entry["offset"] for entry in actual.outbox]
            assert offsets == [entry[0] for entry in state["outbox"]]
            assert all(
                earlier < later
                for earlier, later in zip(offsets, offsets[1:])
            )
            if offsets:
                assert offsets[0] > actual.acked

    @invariant()
    def dead_letter_accounting_is_exact(self):
        total = sum(
            self.registry.get(name).dead_lettered
            for name in self.model
            if self.registry.get(name) is not None
        )
        assert total == self.dead


TestRegistryMachine = RegistryMachine.TestCase
TestRegistryMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)


@given(
    records=st.lists(records_strategy, min_size=0, max_size=12),
    chunk=st.integers(min_value=1, max_value=5),
    entries=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_roundtrip_any_chunking(records, chunk, entries):
    """append_many in any chunking + reopen == the identity on records."""
    directory = tempfile.mkdtemp(prefix="repro-evlog-prop-")
    try:
        log = EventLog(directory, fsync="batch", segment_entries=entries)
        for start in range(0, len(records), chunk):
            log.append_many(records[start : start + chunk])
        log.close()
        reopened = EventLog(directory, segment_entries=entries)
        assert list(reopened.entries_since(0)) == list(enumerate(records))
        assert reopened.end == len(records)
        reopened.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


@given(
    terms=st.lists(tokens_strategy, min_size=1, max_size=3),
    docs=st.lists(tokens_strategy, min_size=0, max_size=8),
    ack_at=st.integers(min_value=-1, max_value=10),
)
@settings(max_examples=25, deadline=None)
def test_recovery_is_deterministic(terms, docs, ack_at):
    """Two recoveries of the same bytes are byte-identical: registry
    snapshot, pending payloads, and per-query result sets all match."""
    directory = tempfile.mkdtemp(prefix="repro-evlog-rec-")
    try:
        log = EventLog(directory, fsync="batch", segment_entries=3)
        for query_id, keywords in enumerate(terms):
            log.append(
                subscribe_record(query_id, keywords, subscriber="alice")
            )
        for doc_id, tokens in enumerate(docs):
            log.append(_publish(doc_id, tokens))
        log.append(ack_record("alice", ack_at))
        log.close()

        def snapshot():
            state = recover(
                directory,
                DasEngine.for_method("GIFilter", k=2, block_size=4),
                segment_entries=3,
            )
            payloads = [
                json.dumps(entry["payload"], sort_keys=True)
                for entry in state.registry.get("alice").outbox
            ]
            results = {
                query_id: [d.doc_id for d in state.engine.results(query_id)]
                for query_id in range(len(terms))
            }
            state.log.close()
            return (
                json.dumps(state.registry.snapshot(), sort_keys=True),
                payloads,
                results,
                state.replayed,
            )

        assert snapshot() == snapshot()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


#: Each resume is one redelivery attempt of every retained entry, and a
#: redelivery dead-letter is not logged: scripts stay below the limit.
MAX_ATTEMPTS = 3

script_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("subscribe"), tokens_strategy, st.booleans()),
        st.tuples(
            st.just("unsubscribe"),
            st.integers(min_value=0, max_value=12),
            st.booleans(),
        ),
        st.tuples(st.just("publish"), tokens_strategy),
        st.tuples(
            st.just("burst"), st.lists(tokens_strategy, min_size=2, max_size=8)
        ),
        st.tuples(st.just("ack"), st.integers(min_value=-1, max_value=40)),
        st.tuples(st.just("resume"), st.integers(min_value=-1, max_value=40)),
        st.tuples(st.just("checkpoint")),
    ),
    max_size=30,
)


def _state_of(engine, registry):
    """What recovery must rebuild: per-query results, query ids, owners,
    and each subscriber's acked floor and retained ``(offset, query_id,
    payload)`` entries."""
    query_ids = sorted(engine._queries)
    return {
        "results": {
            query_id: [d.doc_id for d in engine.results(query_id)]
            for query_id in query_ids
        },
        "owners": dict(registry._owners),
        "subscribers": {
            name: _held_by(registry.get(name)) for name in registry.names()
        },
    }


def _held_by(state):
    return (
        state.acked,
        json.dumps(
            [
                (entry["offset"], entry["query_id"], entry["payload"])
                for entry in state.outbox
            ],
            sort_keys=True,
        ),
    )


def _same_state(live, recovered):
    """``live == recovered``, where a subscriber one side lacks reads as
    the fresh one ``resume`` would create: acked -1, nothing retained.
    (A resume that acks nothing writes no record.)"""
    fresh = _held_by(SubscriberState(""))
    names = set(live["subscribers"]) | set(recovered["subscribers"])

    def filled(side):
        held = {name: side["subscribers"].get(name, fresh) for name in names}
        return {**side, "subscribers": held}

    return filled(live) == filled(recovered)


def _serve_and_recover(script_body):
    """Run ``script_body(runtime, alice)`` against a durable runtime
    after ``alice`` resumed at -1, stop it without draining, recover the
    directory into a fresh engine; returns (live, recovered state)."""
    directory = tempfile.mkdtemp(prefix="repro-evlog-run-")

    def engine():
        return DasEngine.for_method("GIFilter", k=2, block_size=4)

    async def serve():
        runtime = ServerRuntime(
            engine(),
            ServerConfig(
                eventlog_dir=directory,
                eventlog_segment_entries=3,
                eventlog_fsync="never",
                outbound_capacity=4096,
                dlq_max_attempts=MAX_ATTEMPTS,
            ),
        )
        await runtime.start()
        alice = InProcessClient(runtime)
        await alice.resume("alice", -1)
        await script_body(runtime, alice)
        live = _state_of(runtime.engine, runtime._registry)
        await runtime.stop(drain=False)
        return live

    try:
        live = asyncio.run(asyncio.wait_for(serve(), 30.0))
        state = recover(directory, engine(), segment_entries=3)
        state.log.close()
        return live, state
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def test_a_subscriber_that_holds_nothing_pins_no_log():
    """A resume that acks nothing writes no record, so recovery does not
    know the subscriber; live, it reads as a fresh one.  Once it owns a
    query, recovery rebuilds it exactly as live."""

    async def nothing(runtime, alice):
        pass

    async def subscribe(runtime, alice):
        await alice.subscribe(["coffee"])

    live, state = _serve_and_recover(nothing)
    recovered = _state_of(state.engine, state.registry)
    assert "alice" in live["subscribers"]
    assert "alice" not in recovered["subscribers"]
    assert _same_state(live, recovered)

    live, state = _serve_and_recover(subscribe)
    assert live["owners"]
    assert _state_of(state.engine, state.registry) == live


#: Two bursts back to back: live batches of 40 and 40, replayed as one
#: run cut at 64 documents and a second of 16.
_LONG_RUN = [
    ("subscribe", ["coffee"], True),
    ("subscribe", ["coffee", "beans"], True),
    ("subscribe", ["tea", "milk"], False),
    ("burst", [["coffee", "beans"], ["tea"], ["milk"], ["green"]] * 10),
    ("burst", [["coffee"], ["tea", "green"], ["beans"], ["milk"]] * 10),
    ("unsubscribe", 2, False),
    ("burst", [["coffee", "tea"], ["coffee"]]),
    ("ack", 50),
    ("publish", ["coffee", "milk"]),
]


@given(script=script_strategy)
@example(script=_LONG_RUN)
@settings(max_examples=30, deadline=None)
def test_recovery_rebuilds_what_the_runtime_served(script):
    """Subscribe (anonymous or durable), unsubscribe (unknown ids too),
    publish one at a time or in a pipelined burst the matcher batches,
    ack, resume and checkpoint against a durable runtime, stop it
    without draining, and recover the directory into a fresh engine:
    the recovered state is the live one, and replay meets no refusal.
    The invariant monitor audits the live runtime after every step."""

    async def play(runtime, alice):
        monitor = InvariantMonitor(runtime.engine, with_oracle=False)
        resumes = 1
        created_at = 0.0
        for op, *args in script:
            end = runtime.stats()["eventlog"]["end"]
            try:
                if op == "subscribe":
                    keywords, durable = args
                    if durable:
                        await alice.subscribe(keywords)
                    else:
                        raise_for_reply(
                            await runtime.handle_request(
                                None, {"op": "subscribe", "keywords": keywords}
                            )
                        )
                elif op == "unsubscribe":
                    query_id, durable = args
                    request = {"op": "unsubscribe", "query_id": query_id}
                    session = alice.session if durable else None
                    raise_for_reply(
                        await runtime.handle_request(session, request)
                    )
                elif op == "publish":
                    created_at += 1.0
                    await alice.publish(tokens=args[0], created_at=created_at)
                elif op == "burst":
                    stamps = [created_at + 1.0 + i for i in range(len(args[0]))]
                    created_at = stamps[-1]
                    await asyncio.gather(
                        *(
                            alice.publish(tokens=tokens, created_at=stamp)
                            for tokens, stamp in zip(args[0], stamps)
                        )
                    )
                elif op == "ack":
                    await alice.ack(args[0])
                elif op == "resume" and resumes < MAX_ATTEMPTS:
                    resumes += 1
                    await alice.resume("alice", args[0])
                elif op == "checkpoint":
                    await runtime.checkpoint_eventlog()
            except ReproError:
                # Refused: nothing was logged.
                assert runtime.stats()["eventlog"]["end"] == end
            monitor.check_eventlog(runtime)
        assert monitor.violations == []

    live, state = _serve_and_recover(play)
    assert state.replay_errors == []
    assert _same_state(live, _state_of(state.engine, state.registry))
    # Both sides share apply_record; this holds it to the engine.
    assert set(live["owners"]) <= set(live["results"])
