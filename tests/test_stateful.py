"""Model-based stateful testing: GIFilter vs the naive oracle.

Hypothesis drives random interleavings of publish / subscribe /
unsubscribe against both the full engine (every bound on) and the
O(k²)-per-query oracle, asserting identical observable state after every
step.  This exercises exactly the maintenance paths that are easy to get
wrong: block metadata staleness, MCS invalidation, AW budget churn,
warm-up transitions and unsubscription cleanup.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.baselines.naive import NaiveEngine
from repro.config import EngineConfig
from repro.core.engine import DasEngine
from repro.core.query import DasQuery
from repro.stream.document import Document

TOKENS = st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4)
KEYWORDS = st.sets(st.sampled_from("abcdef"), min_size=1, max_size=2)


class EngineVsOracle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.engine = DasEngine.for_method("GIFilter", k=2, block_size=2)
        self.oracle = NaiveEngine(
            EngineConfig(
                k=2,
                use_blocks=False,
                use_group_filter=False,
                use_agg_weights=False,
            )
        )
        self.next_doc_id = 0
        self.next_query_id = 0
        self.live_queries = []

    @rule(tokens=TOKENS)
    def publish(self, tokens):
        document = Document.from_tokens(
            self.next_doc_id, tokens, float(self.next_doc_id)
        )
        self.next_doc_id += 1
        engine_notes = self.engine.publish(document)
        oracle_notes = self.oracle.publish(document)
        assert {(n.query_id, n.document.doc_id) for n in engine_notes} == {
            (n.query_id, n.document.doc_id) for n in oracle_notes
        }

    @rule(keywords=KEYWORDS)
    def subscribe(self, keywords):
        query = DasQuery(self.next_query_id, sorted(keywords))
        self.next_query_id += 1
        engine_initial = self.engine.subscribe(query)
        oracle_initial = self.oracle.subscribe(query)
        assert [d.doc_id for d in engine_initial] == [
            d.doc_id for d in oracle_initial
        ]
        self.live_queries.append(query.query_id)

    @precondition(lambda self: self.live_queries)
    @rule(index=st.integers(min_value=0, max_value=10**6))
    def unsubscribe(self, index):
        query_id = self.live_queries.pop(index % len(self.live_queries))
        self.engine.unsubscribe(query_id)
        self.oracle.unsubscribe(query_id)

    @invariant()
    def results_agree(self):
        for query_id in self.live_queries:
            engine_ids = [d.doc_id for d in self.engine.results(query_id)]
            oracle_ids = [d.doc_id for d in self.oracle.results(query_id)]
            assert engine_ids == oracle_ids, (
                f"query {query_id}: engine {engine_ids} != oracle {oracle_ids}"
            )

    @invariant()
    def query_counts_agree(self):
        assert self.engine.query_count == self.oracle.query_count


TestEngineVsOracle = EngineVsOracle.TestCase
TestEngineVsOracle.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
