"""Workloads: synthetic corpus, query sets, storm shapes."""

from repro.workloads.corpus import SyntheticTweetCorpus, zipf_weights
from repro.workloads.queries import lqd_queries, sqd_queries
from repro.workloads.storms import churn_storm, flash_crowd

__all__ = [
    "SyntheticTweetCorpus",
    "churn_storm",
    "flash_crowd",
    "lqd_queries",
    "sqd_queries",
    "zipf_weights",
]
