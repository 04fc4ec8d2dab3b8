"""Synthetic Twitter-like corpus (substitute for the paper's dataset).

The paper evaluates on 10M real tweets (2.4M distinct terms, ~8 terms per
tweet).  That dataset is proprietary, so this module generates a stream
with the properties the filtering techniques are sensitive to:

* a Zipf-skewed vocabulary (few very popular terms, a long tail);
* topical clustering — documents are drawn from topic-specific term
  distributions, so documents about the same topic share terms.  This is
  what makes queries in one block share result documents, which is what
  minimal covering sets exploit;
* short documents with a configurable distinct-term count (Figure 16's
  sweep variable);
* globally popular "trending" terms, mirroring the 2012 trending-topics
  page used to build the SQD query set.

Terms are readable pseudo-words generated from syllables, so example
output looks like text rather than ``w00042``.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Optional, Sequence, Tuple

from repro.stream.document import Document
from repro.text.vectors import TermVector

_SYLLABLES = (
    "ba be bi bo bu ca ce ci co cu da de di do du fa fe fi fo fu "
    "ga ge gi go gu ha he hi ho hu ja jo ka ke ki ko la le li lo lu "
    "ma me mi mo mu na ne ni no nu pa pe pi po pu ra re ri ro ru "
    "sa se si so su ta te ti to tu va ve vi vo vu wa wi wo ya yo za zo"
).split()


def _pseudo_words(count: int, rng: random.Random) -> List[str]:
    """Deterministically generate ``count`` unique pronounceable words."""
    words: List[str] = []
    seen = set()
    for length in itertools.count(2):
        if len(words) >= count:
            break
        attempts = 0
        needed = count - len(words)
        # Draw random syllable combinations of this length until we either
        # fill the quota or the space is (probabilistically) exhausted.
        max_attempts = needed * 30
        while attempts < max_attempts and len(words) < count:
            word = "".join(rng.choice(_SYLLABLES) for _ in range(length))
            attempts += 1
            if word not in seen:
                seen.add(word)
                words.append(word)
    return words


def zipf_weights(n: int, exponent: float) -> List[float]:
    """Unnormalised Zipf weights ``1/rank^s`` for ranks 1..n."""
    return [1.0 / (rank ** exponent) for rank in range(1, n + 1)]


def _cumulative(weights: Sequence[float]) -> List[float]:
    total = 0.0
    out = []
    for weight in weights:
        total += weight
        out.append(total)
    return out


class SyntheticTweetCorpus:
    """Topic-mixture generator of tweet-like token lists.

    Parameters
    ----------
    vocab_size:
        Total number of distinct terms, split across topics.
    n_topics:
        Number of topics.  Topic popularity is Zipf-distributed.
    doc_length:
        (min, max) number of term *tokens* per document.
    topic_exponent / term_exponent:
        Zipf exponents for topic popularity and within-topic term
        popularity.
    noise_ratio:
        Fraction of each document's tokens drawn from the global
        vocabulary instead of the document's topic.
    """

    def __init__(
        self,
        vocab_size: int = 2000,
        n_topics: int = 40,
        doc_length: Tuple[int, int] = (5, 12),
        topic_exponent: float = 1.0,
        term_exponent: float = 1.05,
        noise_ratio: float = 0.2,
        seed: int = 7,
    ) -> None:
        if vocab_size < n_topics:
            raise ValueError(
                f"vocab_size ({vocab_size}) must be >= n_topics ({n_topics})"
            )
        if doc_length[0] < 1 or doc_length[1] < doc_length[0]:
            raise ValueError(f"invalid doc_length range {doc_length}")
        if not 0.0 <= noise_ratio <= 1.0:
            raise ValueError(f"noise_ratio must be in [0, 1], got {noise_ratio}")
        self.vocab_size = vocab_size
        self.n_topics = n_topics
        self.doc_length = doc_length
        self.noise_ratio = noise_ratio
        self.seed = seed
        rng = random.Random(seed)
        self.vocabulary: List[str] = _pseudo_words(vocab_size, rng)
        # Partition the vocabulary into per-topic slices of equal size
        # (the remainder spills into the last topic).
        per_topic = vocab_size // n_topics
        self.topic_terms: List[List[str]] = []
        for topic in range(n_topics):
            start = topic * per_topic
            end = vocab_size if topic == n_topics - 1 else start + per_topic
            self.topic_terms.append(self.vocabulary[start:end])
        self._topic_cum = _cumulative(zipf_weights(n_topics, topic_exponent))
        self._term_cums = [
            _cumulative(zipf_weights(len(terms), term_exponent))
            for terms in self.topic_terms
        ]
        self._global_cum = _cumulative(zipf_weights(vocab_size, term_exponent))
        # Spatial anchors for the spatial-keyword mode: each topic gets a
        # fixed centre in the unit square, so geo-tagged documents about
        # one topic cluster — the regime where grid-cell pruning pays.
        centre_rng = random.Random(seed + 2)
        self.topic_centers: List[Tuple[float, float]] = [
            (centre_rng.random(), centre_rng.random())
            for _ in range(n_topics)
        ]
        self._rng = random.Random(seed + 1)

    # -- generation -------------------------------------------------------------

    def generate_tokens(self, rng: Optional[random.Random] = None) -> List[str]:
        """One document's token list (tokens may repeat: tf can exceed 1)."""
        rng = rng if rng is not None else self._rng
        length = rng.randint(*self.doc_length)
        (topic,) = rng.choices(range(self.n_topics), cum_weights=self._topic_cum)
        terms = self.topic_terms[topic]
        term_cum = self._term_cums[topic]
        tokens: List[str] = []
        for _ in range(length):
            if rng.random() < self.noise_ratio:
                (token,) = rng.choices(
                    self.vocabulary, cum_weights=self._global_cum
                )
            else:
                (token,) = rng.choices(terms, cum_weights=term_cum)
            tokens.append(token)
        return tokens

    def generate_location(
        self,
        rng: Optional[random.Random] = None,
        topic: Optional[int] = None,
        spread: float = 0.08,
    ) -> Tuple[float, float]:
        """A unit-square location clustered around a topic centre.

        ``topic`` defaults to a fresh Zipf draw (location topics need not
        match token topics — real geo-tags are noisy); ``spread`` is the
        Gaussian radius around the centre, clamped into the unit square.
        """
        rng = rng if rng is not None else self._rng
        if topic is None:
            (topic,) = rng.choices(
                range(self.n_topics), cum_weights=self._topic_cum
            )
        cx, cy = self.topic_centers[topic]
        return (
            min(1.0, max(0.0, rng.gauss(cx, spread))),
            min(1.0, max(0.0, rng.gauss(cy, spread))),
        )

    def documents(
        self,
        n: int,
        start_time: float = 0.0,
        interval: float = 1.0,
        first_id: int = 0,
        rng: Optional[random.Random] = None,
        with_locations: bool = False,
    ) -> List[Document]:
        """Materialise ``n`` stream documents with regular arrivals.

        ``with_locations`` attaches a clustered unit-square location to
        every document (the spatial-keyword mode's input shape); the
        default leaves the token stream's random sequence untouched.
        """
        rng = rng if rng is not None else self._rng
        documents = []
        timestamp = start_time
        for offset in range(n):
            tokens = self.generate_tokens(rng)
            documents.append(
                Document(
                    first_id + offset,
                    TermVector.from_tokens(tokens),
                    timestamp,
                    text=" ".join(tokens),
                    location=(
                        self.generate_location(rng) if with_locations else None
                    ),
                )
            )
            timestamp += interval
        return documents

    # -- query material -----------------------------------------------------------

    def trending_terms(self, per_topic: int = 3) -> List[str]:
        """The most popular terms of each topic — the "trending topics"
        list that seeds SQD-style queries (Section 8.2)."""
        trending: List[str] = []
        for terms in self.topic_terms:
            trending.extend(terms[:per_topic])
        return trending

    def fresh_rng(self, salt: int = 0) -> random.Random:
        """An independent deterministic RNG derived from the corpus seed."""
        return random.Random(f"{self.seed}:{salt}")
