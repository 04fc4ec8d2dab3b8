"""The four workloads and their seeded inputs.

Everything the program under test receives is generated here from
``--seed``; documents carry ``created_at = doc_id`` (one per stream
second) so engine state never depends on the wall clock.  The amount of
measured work is ``rate x --seconds`` — a fixed count for a given seed
and run length — so work counters repeat exactly from run to run and a
faster commit simply finishes sooner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.query import DasQuery
from repro.experiments.workload import WorkloadSpec
from repro.stream.document import Document
from repro.workloads import SyntheticTweetCorpus, lqd_queries, sqd_queries

#: Results per query in every workload.
K = 20
#: SQD keywords are the top terms of each topic.  Four per topic puts a
#: keyword in ~68 % of documents, so the median publish is a matching
#: one; two per topic gives 53 % and a median that flips by seed between
#: the matching and the trivially cheap half.
TRENDING_PER_TOPIC = 4
#: Rounds a measured phase is cut into (per-round rates show drift).
ROUNDS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    query_set: str  # "lqd" | "sqd"
    n_queries: int
    #: ``None`` = library default (the served engine takes no override).
    block_size: int | None
    n_history: int
    n_settle: int
    #: Measured steps per second of ``--seconds`` (the seed commit's
    #: speed on the reference container, rounded down).
    rate: float
    #: Overrides of the ``WorkloadSpec`` corpus defaults.
    corpus: Dict[str, int] = field(default_factory=dict)
    #: Subscribes and unsubscribes riding on every measured publish.
    churn: int = 0
    #: Served over TCP with a durable event log instead of in-process.
    served: bool = False
    #: One in ``oracle_mod`` queries is replayed on the brute-force oracle.
    oracle_mod: int = 100


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="lqd_20k",
        why=(
            "20,000 LQD queries, one publish at a time: the paper's headline "
            "regime, ~210 individual evaluations per document, so result-set "
            "and scoring code does the work and block skipping almost none"
        ),
        query_set="lqd", n_queries=20000, block_size=64,
        n_history=2500, n_settle=200, rate=100, oracle_mod=200,
    ),
    Workload(
        name="sqd_deep_5k",
        why=(
            "5,000 SQD queries over 80 trending terms in blocks of 16: deep "
            "postings lists, many group checks per document, so group "
            "filtering, block summaries and the flat mirrors do the work"
        ),
        query_set="sqd", n_queries=5000, block_size=16,
        n_history=2500, n_settle=200, rate=140,
        corpus={"n_topics": 20, "vocab_size": 8000},
    ),
    Workload(
        name="sub_churn_10k",
        why=(
            "10,000 LQD queries with 4 subscribes and 4 unsubscribes per "
            "publish: the same index used for writes beside reads, so index "
            "maintenance bought to speed traversal shows as a loss here"
        ),
        query_set="lqd", n_queries=10000, block_size=64,
        n_history=2500, n_settle=200, rate=120, churn=4,
    ),
    Workload(
        name="serve_durable_2k",
        why=(
            "2,000 LQD queries behind `repro serve --eventlog-dir` over TCP: "
            "saturation, then a fixed open-loop rate, then SIGKILL and "
            "restart; protocol, runtime, sessions and event log do the work"
        ),
        query_set="lqd", n_queries=2000, block_size=None,
        n_history=300, n_settle=200, rate=270, served=True, oracle_mod=20,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass
class Step:
    """One measured step: a publish and the churn that rides on it."""

    doc: Document
    subs: List[DasQuery]
    unsubs: List[int]


@dataclass
class Inputs:
    history: List[Document]
    standing: List[DasQuery]
    settle: List[Document]
    steps: List[Step]

    def live_ids(self) -> List[int]:
        """Ids of the queries still subscribed after the last step."""
        live = {q.query_id for q in self.standing}
        for step in self.steps:
            live.update(q.query_id for q in step.subs)
            live.difference_update(step.unsubs)
        return sorted(live)


def build_inputs(w: Workload, seed: int, seconds: float) -> Inputs:
    """Generate every input of one run from the seed."""
    spec = WorkloadSpec()
    shape = dict(vocab_size=spec.vocab_size, n_topics=spec.n_topics)
    shape.update(w.corpus)
    corpus = SyntheticTweetCorpus(
        doc_length=spec.doc_length,
        term_exponent=spec.term_exponent,
        topic_exponent=spec.topic_exponent,
        noise_ratio=spec.noise_ratio,
        seed=seed,
        **shape,
    )
    n_steps = max(ROUNDS, int(round(w.rate * seconds)))
    docs = corpus.documents(w.n_history + w.n_settle + n_steps)
    n_total = w.n_queries + w.churn * n_steps
    if w.query_set == "sqd":
        queries = sqd_queries(
            corpus.trending_terms(per_topic=TRENDING_PER_TOPIC),
            n_total,
            rng=corpus.fresh_rng(salt=202),
        )
    else:
        # One source document per query (the library default of 500 lets
        # a few popular pool documents decide the postings depth, which
        # then swings by seed).
        queries = lqd_queries(corpus, n_total, sample_docs=n_total)
    standing = queries[: w.n_queries]
    fresh = iter(queries[w.n_queries:])
    # Unsubscribe targets are drawn uniformly from the queries live at
    # that step (swap-remove keeps the draw O(1)).
    live = [q.query_id for q in standing]
    rng = corpus.fresh_rng(salt=303)
    steps: List[Step] = []
    first = w.n_history + w.n_settle
    for doc in docs[first:]:
        subs = [next(fresh) for _ in range(w.churn)]
        live.extend(q.query_id for q in subs)
        unsubs = []
        for _ in range(w.churn):
            at = rng.randrange(len(live))
            live[at], live[-1] = live[-1], live[at]
            unsubs.append(live.pop())
        steps.append(Step(doc, subs, unsubs))
    return Inputs(
        history=docs[: w.n_history],
        standing=standing,
        settle=docs[w.n_history: first],
        steps=steps,
    )
