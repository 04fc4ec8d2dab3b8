"""Standard experimental workload (Section 8.2, scaled).

One place defines the corpus, query sets and engine construction used by
every figure, so parameter sweeps vary exactly one knob
against a common baseline.  Scales are chosen for pure Python: thousands
of queries instead of millions, hundreds of measured documents instead
of hours of stream — DESIGN.md §2 records the substitution.

The corpus parameters were calibrated so the synthetic stream matches
the statistics the filtering techniques are sensitive to in the paper's
Twitter dataset: ~1-2 % of random document pairs share a term, head
terms appear in ~7 % of documents, documents carry 4-16 terms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.baselines import DiscEngine, MsIncEngine, NaiveEngine
from repro.core.engine import DasEngine
from repro.core.query import DasQuery
from repro.stream.document import Document
from repro.workloads.corpus import SyntheticTweetCorpus
from repro.workloads.queries import lqd_queries, sqd_queries

#: The four streaming DAS methods, in the paper's usual plotting order.
DAS_METHODS = ("IRT", "BIRT", "IFilter", "GIFilter")


@dataclass(frozen=True)
class WorkloadSpec:
    """Knobs of one experiment run (paper's Table 5, scaled)."""

    n_queries: int = 4000
    n_history: int = 4000
    n_settle: int = 200
    n_measure: int = 200
    k: int = 30
    alpha: float = 0.3
    block_size: int = 64
    delta_s: float = 0.5
    phi_max: int = -1  # UNLIMITED
    smoothing_lambda: float = 0.3
    min_query_terms: int = 1
    max_query_terms: int = 5
    #: decay value retained over the whole measured horizon ("decaying
    #: scale" of Section 8.3).
    decay_scale: float = 0.5
    query_set: str = "lqd"  # or "sqd"
    vocab_size: int = 30000
    n_topics: int = 300
    doc_length: tuple = (4, 16)
    term_exponent: float = 0.7
    topic_exponent: float = 0.8
    noise_ratio: float = 0.3
    seed: int = 2015

    def evolve(self, **changes) -> "WorkloadSpec":
        return replace(self, **changes)

    @property
    def horizon(self) -> float:
        """Stream duration in seconds (1 document per second)."""
        return float(self.n_history + self.n_settle + self.n_measure)


@dataclass
class Workload:
    """Materialised documents and queries for one spec."""

    spec: WorkloadSpec
    corpus: SyntheticTweetCorpus
    history: List[Document]
    settle: List[Document]
    measure: List[Document]
    queries: List[DasQuery]

    def make_engine(self, method: str) -> DasEngine:
        """A DAS engine configured for ``method`` under this spec."""
        spec = self.spec
        overrides = dict(
            k=spec.k,
            alpha=spec.alpha,
            block_size=spec.block_size,
            delta_s=spec.delta_s,
            phi_max=spec.phi_max,
            smoothing_lambda=spec.smoothing_lambda,
        )
        engine = DasEngine.for_method(method, **overrides)
        return DasEngine(
            engine.config.with_decay_scale(spec.decay_scale, spec.horizon)
        )

    def make_naive(self) -> NaiveEngine:
        spec = self.spec
        from repro.config import EngineConfig

        config = EngineConfig(
            k=spec.k,
            alpha=spec.alpha,
            smoothing_lambda=spec.smoothing_lambda,
            use_blocks=False,
            use_group_filter=False,
            use_agg_weights=False,
        ).with_decay_scale(spec.decay_scale, spec.horizon)
        return NaiveEngine(config)

    def make_disc(
        self,
        radius: float = 0.45,
        window_size: int = 2000,
        refresh_every: int = 100,
        algorithm: str = "basic",
    ) -> DiscEngine:
        return DiscEngine(
            radius=radius,
            window_size=window_size,
            refresh_every=refresh_every,
            algorithm=algorithm,
        )

    def make_msinc(self) -> MsIncEngine:
        spec = self.spec
        from repro.config import EngineConfig

        config = EngineConfig(
            k=spec.k,
            alpha=spec.alpha,
            smoothing_lambda=spec.smoothing_lambda,
            use_blocks=False,
            use_group_filter=False,
            use_agg_weights=False,
        ).with_decay_scale(spec.decay_scale, spec.horizon)
        return MsIncEngine(config)


def build_workload(spec: Optional[WorkloadSpec] = None) -> Workload:
    """Generate the corpus, stream segments and query set for a spec."""
    spec = spec if spec is not None else WorkloadSpec()
    if spec.query_set not in ("lqd", "sqd"):
        raise ValueError(f"unknown query_set {spec.query_set!r}")
    corpus = SyntheticTweetCorpus(
        vocab_size=spec.vocab_size,
        n_topics=spec.n_topics,
        doc_length=spec.doc_length,
        term_exponent=spec.term_exponent,
        topic_exponent=spec.topic_exponent,
        noise_ratio=spec.noise_ratio,
        seed=spec.seed,
    )
    history = corpus.documents(spec.n_history)
    settle = corpus.documents(
        spec.n_settle, first_id=spec.n_history, start_time=float(spec.n_history)
    )
    measure_start = spec.n_history + spec.n_settle
    measure = corpus.documents(
        spec.n_measure, first_id=measure_start, start_time=float(measure_start)
    )
    if spec.query_set == "lqd":
        queries = lqd_queries(
            corpus,
            spec.n_queries,
            min_terms=spec.min_query_terms,
            max_terms=spec.max_query_terms,
        )
    else:
        queries = sqd_queries(
            corpus.trending_terms(per_topic=2),
            spec.n_queries,
            min_terms=spec.min_query_terms,
            max_terms=spec.max_query_terms,
        )
    return Workload(
        spec=spec,
        corpus=corpus,
        history=history,
        settle=settle,
        measure=measure,
        queries=queries,
    )
