"""Filtering-effectiveness gauges derived from the engine work counters.

The paper's evaluation axis is *work avoided*: blocks skipped by the
group condition (Ineq. 11), candidates dismissed before the Lemma 6 dot
(relevance + keyword floor), and how many exact similarity evaluations
each delivered match ultimately cost.  These gauges are pure
functions of :class:`repro.metrics.instrumentation.Counters`, so they
are exact and deterministic.

Every ratio degrades to ``0.0`` on a zero denominator (a fresh engine
reports all-zero effectiveness rather than NaN).
"""

from __future__ import annotations

from typing import Dict, Mapping, Union

from repro.metrics.instrumentation import Counters

#: Gauges whose value is a proportion and must stay within [0, 1].
BOUNDED_RATIOS = (
    "blocks_skipped_ratio",
    "quick_rejection_ratio",
    "group_check_skip_ratio",
    "group_check_engagement",
    "match_rate",
)


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def effectiveness_gauges(
    counters: Union[Counters, Mapping[str, int]],
) -> Dict[str, float]:
    """Derived filtering-effectiveness gauges, keyed by gauge name."""
    values = (
        counters.as_dict() if isinstance(counters, Counters) else counters
    )
    blocks_visited = values["blocks_visited"]
    blocks_skipped = values["blocks_skipped"]
    queries_evaluated = values["queries_evaluated"]
    group_checks = values["group_checks"]
    return {
        # Share of candidate blocks the group condition skipped outright.
        "blocks_skipped_ratio": _ratio(
            blocks_skipped, blocks_visited + blocks_skipped
        ),
        # Share of evaluated queries dismissed before the Lemma 6 dot
        # (relevance + keyword floor).
        "quick_rejection_ratio": _ratio(
            values["quick_rejections"], queries_evaluated
        ),
        # How often the individual filter still pays the dot.  Unbounded
        # (promotion and fill dots count too), so not in BOUNDED_RATIOS;
        # ``.get`` for hand-built counter dicts without the dot count.
        "aw_dots_per_evaluation": _ratio(
            values.get("aw_dot_products", 0), queries_evaluated
        ),
        # Exact similarity evaluations paid per delivered match.
        "sim_evals_per_match": _ratio(
            values["sim_evaluations"], values["matches"]
        ),
        # Postings touched per published document (traversal cost).
        "postings_per_doc": _ratio(
            values["postings_visited"], values["docs_published"]
        ),
        # Share of group checks that resulted in a skip.
        "group_check_skip_ratio": _ratio(blocks_skipped, group_checks),
        # Share of block boundaries where the group check actually ran;
        # the rest sat out the engine's backoff (``.get``: counters from
        # checkpoints older than the backoff lack the deferred count).
        # Near 1 means group filtering is engaged, near 1/64 that it
        # finds nothing to skip on this workload.
        "group_check_engagement": _ratio(
            group_checks,
            group_checks + values.get("group_checks_deferred", 0),
        ),
        # Share of evaluated queries that produced a result update.
        "match_rate": _ratio(values["matches"], queries_evaluated),
    }
