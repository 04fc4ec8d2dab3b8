"""Core contribution: the DAS query and the filtering pub/sub engine."""

from repro.core.agg_weights import AggregatedTermWeights, MemoryBudget
from repro.core.blocks import PostingsBlock
from repro.core.engine import DasEngine
from repro.core.events import Notification
from repro.core.filtering import (
    TIE_EPSILON,
    accepts,
    block_similarity_lower_bound,
    block_threshold_lower_bound,
    block_trel_upper_bound,
    exact_group_threshold,
    group_filters_out,
    quick_relevance_bound,
)
from repro.core.initializer import select_initial_documents
from repro.core.inverted_file import PostingsList, QueryInvertedFile
from repro.core.mcs import (
    BlockUniverse,
    build_universe,
    greedy_mcs_gen,
    verify_cover,
)
from repro.core.query import DasQuery
from repro.core.result_set import QueryResultSet

__all__ = [
    "AggregatedTermWeights",
    "BlockUniverse",
    "DasEngine",
    "DasQuery",
    "MemoryBudget",
    "Notification",
    "PostingsBlock",
    "PostingsList",
    "QueryInvertedFile",
    "QueryResultSet",
    "TIE_EPSILON",
    "accepts",
    "block_similarity_lower_bound",
    "block_threshold_lower_bound",
    "block_trel_upper_bound",
    "build_universe",
    "exact_group_threshold",
    "greedy_mcs_gen",
    "group_filters_out",
    "quick_relevance_bound",
    "select_initial_documents",
    "verify_cover",
]
