"""Correctness gate: replay a sample of the queries on ``NaiveEngine``.

DAS queries do not interact — a query's result set depends only on the
document stream and on when it subscribed — so the brute-force engine
fed the same stream and only every ``oracle_mod``-th query must emit
exactly the changes the engine under test emitted for those queries.
That checks the run's real output at full scale for the cost of a few
hundred naive queries.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from repro.baselines import NaiveEngine
from repro.config import EngineConfig

from common import Change, change_of
from workloads import Inputs


def sampled_ids(inputs: Inputs, mod: int) -> Set[int]:
    ids = {q.query_id for q in inputs.standing if q.query_id % mod == 0}
    for step in inputs.steps:
        ids.update(q.query_id for q in step.subs if q.query_id % mod == 0)
    return ids


def replay(inputs: Inputs, config: EngineConfig, sample: Set[int]) -> List[Change]:
    """The changes the sampled queries must see, from subscribe onwards."""
    naive = NaiveEngine(config)
    changes: List[Change] = []
    for doc in inputs.history:
        naive.publish(doc)
    for query in inputs.standing:
        if query.query_id in sample:
            naive.subscribe(query)
    for doc in inputs.settle:
        changes.extend(map(change_of, naive.publish(doc)))
    for step in inputs.steps:
        changes.extend(map(change_of, naive.publish(step.doc)))
        for query in step.subs:
            if query.query_id in sample:
                naive.subscribe(query)
        for query_id in step.unsubs:
            if query_id in sample:
                naive.unsubscribe(query_id)
    return changes


def mismatches(
    inputs: Inputs,
    config: EngineConfig,
    mod: int,
    observed: Iterable[Change],
) -> int:
    """Changes present on one side only, over the sampled queries."""
    sample = sampled_ids(inputs, mod)
    expected = set(replay(inputs, config, sample))
    seen = {change for change in observed if change[1] in sample}
    return len(expected ^ seen)
