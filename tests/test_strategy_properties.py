"""Hypothesis property tests for the strategy modes (ISSUE 10, S1).

Two families of guarantees:

* **Window mode** — under arbitrary subscribe/unsubscribe/publish churn
  the incremental engine is byte-identical to :class:`WindowOracle`,
  which re-ranks the full live candidate buffer on every read.  That
  includes the notifications emitted when an expiry promotes a buffered
  candidate into the top-k.

* **Spatial mode** — the grid index is byte-identical to
  :class:`SpatialOracle` (which scores every query for every document),
  and the cell-skip predicate is sound in isolation: whenever
  :func:`spatial_cell_filters_out` says a cell can be skipped, no
  admissible (proximity, trel) pair inside the cell's bounds could have
  beaten the admission test.  Together these show the pruning has no
  false negatives.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig
from repro.core.engine import DasEngine
from repro.core.filtering import (
    TIE_EPSILON,
    cell_proximity_upper_bound,
    spatial_cell_filters_out,
    spatial_proximity,
    spatial_score,
)
from repro.core.query import DasQuery
from repro.core.strategies import effective_window, make_oracle
from repro.stream.document import Document
from repro.text.vectors import TermVector

ALPHABET = ["alpha", "bravo", "carol", "delta", "echo", "fox"]


def _note_key(notification):
    replaced = notification.replaced
    return (
        notification.query_id,
        notification.document.doc_id,
        replaced.doc_id if replaced is not None else -1,
    )


@st.composite
def churn_ops(draw, spatial: bool):
    """A random op sequence: (kind, payload) with valid unsubscribe refs."""
    n_ops = draw(st.integers(min_value=4, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = random.Random(seed)
    ops = []
    live = 0
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.30:
            terms = rng.sample(ALPHABET, rng.randint(1, 3))
            location = (rng.random(), rng.random()) if spatial else None
            window = (
                rng.choice([None, 2, 3, 5, 9]) if not spatial else None
            )
            ops.append(("subscribe", (terms, location, window)))
            live += 1
        elif roll < 0.45 and live > 0:
            ops.append(("unsubscribe", rng.randrange(live)))
            live -= 1
        else:
            tokens = [rng.choice(ALPHABET) for _ in range(rng.randint(1, 5))]
            location = None
            if spatial and rng.random() < 0.85:
                location = (rng.random(), rng.random())
            ops.append(("publish", (tokens, location)))
    return ops


def _replay(target, ops, subscribe, publish):
    """Drive one engine through the op list, logging every observable."""
    log = []
    qid = 0
    live = []
    for index, (kind, payload) in enumerate(ops):
        if kind == "subscribe":
            terms, location, window = payload
            qid += 1
            initial = subscribe(
                target,
                DasQuery(qid, terms, location=location, window=window),
            )
            live.append(qid)
            log.append(("sub", qid, [d.doc_id for d in initial]))
        elif kind == "unsubscribe":
            victim = live.pop(payload)
            target.unsubscribe(victim)
            log.append(("unsub", victim))
        else:
            tokens, location = payload
            document = Document(
                1000 + index,
                TermVector.from_tokens(tokens),
                float(index),
                location=location,
            )
            notes = publish(target, document)
            log.append(sorted(_note_key(n) for n in notes))
        for query_id in live:
            log.append(
                (
                    query_id,
                    [d.doc_id for d in target.results(query_id)],
                    target.current_dr(query_id),
                )
            )
    return log


def _replay_pair(config, ops):
    engine_log = _replay(
        DasEngine(config),
        ops,
        lambda e, q: e.subscribe(q),
        lambda e, d: e.publish(d),
    )
    oracle_log = _replay(
        make_oracle(config),
        ops,
        lambda o, q: o.subscribe(q),
        lambda o, d: o.publish(d),
    )
    return engine_log, oracle_log


@settings(max_examples=120, deadline=None)
@given(churn_ops(spatial=False))
def test_window_engine_matches_rerank_oracle_under_churn(ops):
    """Every notification, result list, and dr value is byte-identical to
    the full re-rank oracle — including promotions after expiry."""
    config = EngineConfig(
        k=3, block_size=4, mode="window", window_size=6
    )
    engine_log, oracle_log = _replay_pair(config, ops)
    assert engine_log == oracle_log


@settings(max_examples=120, deadline=None)
@given(churn_ops(spatial=True))
def test_spatial_engine_matches_brute_force_oracle(ops):
    """Grid-indexed matching equals score-everything brute force, so the
    cell skips never lose a qualifying query (no false negatives)."""
    config = EngineConfig(
        k=3,
        block_size=4,
        mode="spatial",
        spatial_cells=3,
        spatial_weight=0.5,
    )
    engine_log, oracle_log = _replay_pair(config, ops)
    assert engine_log == oracle_log


unit = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=200, deadline=None)
@given(
    prox=unit,
    prox_slack=unit,
    trel=unit,
    trel_slack=unit,
    threshold=st.floats(
        min_value=-1.0, max_value=2.0, allow_nan=False, allow_infinity=False
    ),
    weight=unit,
)
def test_cell_skip_predicate_never_drops_admissible_score(
    prox, prox_slack, trel, trel_slack, threshold, weight
):
    """If the predicate skips a cell, no (proximity, trel) pair under the
    cell's upper bounds can satisfy the strict admission test."""
    prox_upper = min(1.0, prox + prox_slack)
    trel_upper = min(1.0, trel + trel_slack)
    if spatial_cell_filters_out(prox_upper, trel_upper, threshold, weight):
        score = spatial_score(prox, trel, weight)
        assert not score > threshold + TIE_EPSILON


@settings(max_examples=200, deadline=None)
@given(
    cx=unit, cy=unit, qx=unit, qy=unit, dx=unit, dy=unit, cells=st.integers(1, 8)
)
def test_cell_proximity_upper_bound_dominates_members(
    cx, cy, qx, qy, dx, dy, cells
):
    """The rectangle bound is >= the true proximity of any query inside
    the cell that contains it."""
    step = 1.0 / cells
    col = min(int(qx / step), cells - 1)
    row = min(int(qy / step), cells - 1)
    bounds = (col * step, row * step, (col + 1) * step, (row + 1) * step)
    upper = cell_proximity_upper_bound(bounds, (dx, dy))
    actual = spatial_proximity((qx, qy), (dx, dy))
    assert upper >= actual - TIE_EPSILON


@settings(max_examples=100, deadline=None)
@given(
    requested=st.one_of(st.none(), st.integers(min_value=1, max_value=200)),
    window_size=st.integers(min_value=1, max_value=64),
)
def test_effective_window_never_exceeds_global_bound(requested, window_size):
    query = DasQuery(1, ["alpha"], window=requested)
    window = effective_window(query, window_size)
    assert 1 <= window <= window_size
    if requested is not None:
        assert window <= requested
