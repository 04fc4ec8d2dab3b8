"""Text substrate: tokenisation, term vectors, statistics."""

from repro.text.collection_stats import CollectionStatistics
from repro.text.stopwords import ENGLISH_STOPWORDS
from repro.text.tokenizer import DEFAULT_TOKENIZER, Tokenizer, tokenize
from repro.text.vectors import (
    EMPTY_VECTOR,
    TermVector,
    angular_distance,
    angular_similarity,
    cosine_similarity,
    dissimilarity,
)

__all__ = [
    "CollectionStatistics",
    "DEFAULT_TOKENIZER",
    "EMPTY_VECTOR",
    "ENGLISH_STOPWORDS",
    "TermVector",
    "Tokenizer",
    "angular_distance",
    "angular_similarity",
    "cosine_similarity",
    "dissimilarity",
    "tokenize",
]
