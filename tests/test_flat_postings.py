"""Flat postings mirror (ISSUE 9 tentpole): structural byte-identity.

The mirror keeps per-term contiguous arrays of the linked
:class:`~repro.core.inverted_file.QueryInvertedFile` structure —
append-at-tail inserts, tombstoned removals, threshold-triggered
compaction — and the batch skip pass is only sound if that mirror never
drifts from the source of truth.  This suite drives random
subscribe/unsubscribe churn through a real engine (Hypothesis), pins
the compaction trigger, proves a checkpoint restore rebuilds the mirror
through the ordinary insert hooks, and crafts a document whose
universal upper bound actually fires the batch verdict so the
prefilter's skip path (not just its fallback) is exercised.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig
from repro.core.engine import DasEngine
from repro.core.query import DasQuery
from repro.persistence.checkpoint import checkpoint, restore
from repro.stream.document import Document

TERMS = ("alpha", "beta", "gamma", "delta")


def _engine(**overrides):
    options = dict(k=2, block_size=2, backend="numpy")
    options.update(overrides)
    engine = DasEngine(EngineConfig(**options))
    if engine._flat is None:
        pytest.skip("flat mirror unavailable")
    return engine


def _linked_view(engine):
    """Live postings grouped by block, from the linked source of truth."""
    return {
        term: [
            list(block.query_ids)
            for block in engine._index.list_for(term).blocks
        ]
        for term in engine._index.terms()
    }


_ACTIONS = st.lists(
    st.one_of(
        st.tuples(
            st.just("sub"),
            st.sets(st.sampled_from(TERMS), min_size=1, max_size=3),
        ),
        st.tuples(st.just("unsub"), st.floats(0.0, 1.0, exclude_max=True)),
    ),
    min_size=1,
    max_size=60,
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(actions=_ACTIONS)
def test_flat_mirror_is_byte_identical_under_churn(actions):
    """After every insert, tombstone, block deletion and compaction the
    mirror's live view equals the linked structure exactly."""
    engine = _engine()
    next_id = 0
    live = []
    for kind, payload in actions:
        if kind == "sub":
            engine.subscribe(DasQuery(next_id, sorted(payload)))
            live.append(next_id)
            next_id += 1
        elif live:
            index = int(payload * len(live))
            engine.unsubscribe(live.pop(index))
        assert engine._flat.audit() == _linked_view(engine)


def test_tombstone_threshold_triggers_compaction():
    """Sparse unsubscribes tombstone in place until the dead share
    crosses the threshold, then the term rebuilds without tombstones."""
    engine = _engine(block_size=4)
    for query_id in range(40):
        engine.subscribe(DasQuery(query_id, ["alpha"]))
    state = engine._flat._terms["alpha"]
    assert state.size == 40 and state.block_count == 10
    # One removal per block: no block empties, so every removal is a
    # pure tombstone until compaction fires at 10 dead (10*4 >= 40).
    for query_id in range(0, 36, 4):
        engine.unsubscribe(query_id)
    assert state.dead == 9
    assert engine.counters.postings_compactions == 0
    engine.unsubscribe(36)
    assert engine.counters.postings_compactions == 1
    assert state.dead == 0 and state.size == 30
    assert engine._flat.audit() == _linked_view(engine)


def test_checkpoint_restore_rebuilds_mirror():
    """The mirror is derived state: restore replays inserts against the
    index and the attached mirror sees every one of them."""
    engine = _engine()
    for query_id in range(6):
        engine.subscribe(
            DasQuery(query_id, [TERMS[query_id % 3], TERMS[3]])
        )
    engine.unsubscribe(2)
    restored = restore(checkpoint(engine))
    assert restored._flat is not None
    # Restore replays the surviving queries in id order, so block
    # boundaries may differ from the churned original — the mirror must
    # match the *restored* linked structure exactly, and the flattened
    # memberships must match the original engine.
    assert restored._flat.audit() == _linked_view(restored)
    assert {
        term: sorted(q for block in blocks for q in block)
        for term, blocks in restored._flat.audit().items()
    } == {
        term: sorted(q for block in blocks for q in block)
        for term, blocks in _linked_view(engine).items()
    }


def _strong_doc(doc_id, flavour):
    # Heavily concentrated on the query term: near-maximal TRel, so the
    # filled result sets are expensive to displace.
    return Document.from_tokens(
        doc_id, ["alpha"] * 10 + [flavour] * 2, created_at=0.0
    )


def test_batch_verdict_fires_and_matches_scalar_decisions(monkeypatch):
    """A weak document against strong filled results trips the U0
    verdict (``flat_skips`` > 0) and the outcome is identical to the
    flat-disabled engine — the verdict only takes guaranteed skips."""

    def drive(engine):
        for query_id in range(4):
            engine.subscribe(DasQuery(query_id, ["alpha"]))
        notes = []
        for doc_id, flavour in enumerate(("beta", "gamma")):
            notes += engine.publish(_strong_doc(doc_id, flavour))
        # PS of "alpha" is diluted to ~1/32: with alpha=0.9 the upper
        # bound sits far below the filled blocks' Eq. 12 thresholds.
        weak = Document.from_tokens(
            2, ["alpha"] + ["zeta"] * 31, created_at=0.0
        )
        notes += engine.publish(weak)
        final = {
            query_id: [d.doc_id for d in engine.results(query_id)]
            for query_id in range(4)
        }
        return sorted(
            (n.query_id, n.document.doc_id) for n in notes
        ), final

    flat_engine = _engine(alpha=0.9)
    flat_notes, flat_final = drive(flat_engine)
    assert flat_engine.counters.flat_skips > 0
    # The two warm-up documents met blocks with no filled member; those
    # checks are no evidence against group filtering, so nothing backed
    # off and the weak document's boundaries were all checked.
    assert flat_engine.counters.group_checks_deferred == 0
    assert flat_engine._check_backoff == 0
    monkeypatch.setenv("REPRO_DISABLE_FLAT_POSTINGS", "1")
    scalar_engine = DasEngine(
        EngineConfig(k=2, block_size=2, backend="numpy", alpha=0.9)
    )
    assert scalar_engine._flat is None
    assert drive(scalar_engine) == (flat_notes, flat_final)
    assert (
        scalar_engine.counters.blocks_skipped
        == flat_engine.counters.blocks_skipped
    )
