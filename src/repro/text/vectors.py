"""Sparse term-frequency vectors and similarity measures.

A :class:`TermVector` is the system's canonical document representation:
an immutable map ``term -> frequency`` with its Euclidean norm and token
count precomputed, because cosine similarities (Eq. 6) and language-model
scores (Eq. 3) are evaluated millions of times per experiment.

:func:`cached_cosines` over a :class:`SimCache` is the engine's one
cosine kernel: every ``Sim(d_n, stored document)`` a publish needs — the
R2 tail of a Lemma 6 sum, a replacement's kept rows, the minimum of an
MCS cover (Eq. 19) — goes through it, at most once per stored document
per stream document.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple


class TermVector:
    """Immutable sparse term-frequency vector.

    Attributes
    ----------
    norm:
        Euclidean norm ``sqrt(sum tf^2)`` — the ``||d.v_d||`` of Eq. 20/22.
    length:
        Total token count ``|d.v_d|`` used by the language model.
    """

    __slots__ = ("_tf", "norm", "length")

    def __init__(self, tf: Mapping[str, int]) -> None:
        cleaned: Dict[str, int] = {}
        for term, count in tf.items():
            if count < 0:
                raise ValueError(f"negative term frequency for {term!r}: {count}")
            if count:
                cleaned[term] = int(count)
        self._tf = cleaned
        self.length = sum(cleaned.values())
        self.norm = math.sqrt(sum(c * c for c in cleaned.values()))

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "TermVector":
        """Build a vector by counting ``tokens``."""
        tf: Dict[str, int] = {}
        for token in tokens:
            tf[token] = tf.get(token, 0) + 1
        return cls(tf)

    @classmethod
    def from_text(cls, text: str) -> "TermVector":
        """Tokenise ``text`` with the default tokenizer and count terms."""
        from repro.text.tokenizer import tokenize

        return cls.from_tokens(tokenize(text))

    # -- mapping-style access ------------------------------------------------

    def frequency(self, term: str) -> int:
        """Term frequency of ``term`` (0 if absent)."""
        return self._tf.get(term, 0)

    def __contains__(self, term: str) -> bool:
        return term in self._tf

    def __iter__(self) -> Iterator[str]:
        return iter(self._tf)

    def __len__(self) -> int:
        """Number of *distinct* terms."""
        return len(self._tf)

    def __bool__(self) -> bool:
        return bool(self._tf)

    def items(self) -> Iterable[Tuple[str, int]]:
        return self._tf.items()

    def terms(self) -> Iterable[str]:
        return self._tf.keys()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TermVector):
            return NotImplemented
        return self._tf == other._tf

    def __hash__(self) -> int:
        return hash(frozenset(self._tf.items()))

    def __repr__(self) -> str:
        preview = dict(sorted(self._tf.items())[:6])
        suffix = ", ..." if len(self._tf) > 6 else ""
        return f"TermVector({preview}{suffix})"

    def __reduce__(self):
        # Pickle only the term frequencies; the norm and length are
        # rebuilt on load.
        return (TermVector, (self._tf,))

    # -- geometry -------------------------------------------------------------

    def dot(self, other: "TermVector") -> float:
        """Inner product of raw term frequencies."""
        a, b = self._tf, other._tf
        if len(b) < len(a):
            a, b = b, a
        return float(sum(count * b[term] for term, count in a.items() if term in b))

    def unit_weight(self, term: str) -> float:
        """``tf(term) / norm`` — the per-term weight used by Eq. 20/22."""
        if self.norm == 0.0:
            return 0.0
        return self._tf.get(term, 0) / self.norm


def cosine_similarity(a: TermVector, b: TermVector) -> float:
    """Cosine similarity, the ``Sim`` of Eq. 6 (0 when either is empty).

    Vectors sharing no term (an empty one shares none) short-circuit to
    the exact ``0.0`` the dot product would give, without the Python-level
    sum — most stored documents share nothing with a stream document.
    """
    if a._tf.keys().isdisjoint(b._tf):
        return 0.0
    return a.dot(b) / (a.norm * b.norm)


class SimCache(dict):
    """``{stored doc_id: Sim(d_n, stored document)}`` for one stream
    document ``d_n``.  The owner clears it before every document;
    ``lookups`` meters the values served, so hits = lookups − len."""

    __slots__ = ("lookups",)

    def __init__(self) -> None:
        self.lookups = 0

    def clear(self) -> None:
        super().clear()
        self.lookups = 0


def cached_cosines(
    vector: TermVector, documents: Iterable, cache: Optional[SimCache]
) -> List[float]:
    """``[cosine_similarity(vector, d.vector) for d in documents]`` — the
    exact floats — each computed at most once per ``cache``."""
    if cache is None:
        return [cosine_similarity(vector, d.vector) for d in documents]
    get = cache.get
    sims = []
    for document in documents:
        doc_id = document.doc_id
        sim = get(doc_id)
        if sim is None:
            sim = cache[doc_id] = cosine_similarity(vector, document.vector)
        sims.append(sim)
    cache.lookups += len(sims)
    return sims


def dissimilarity(a: TermVector, b: TermVector) -> float:
    """``d(d_i, d_j) = 1 - Sim(d_i, d_j)`` (Eq. 6)."""
    return 1.0 - cosine_similarity(a, b)


def angular_similarity(a: TermVector, b: TermVector) -> float:
    """Angular similarity ``1 - arccos(cos)/π`` (Appendix A.2).

    Unlike raw cosine this induces a proper distance metric
    (``1 - angular_similarity``), which DisC requires.
    """
    cos = cosine_similarity(a, b)
    cos = max(-1.0, min(1.0, cos))
    return 1.0 - math.acos(cos) / math.pi


def angular_distance(a: TermVector, b: TermVector) -> float:
    """Metric distance ``arccos(cos)/π`` in [0, 1]."""
    return 1.0 - angular_similarity(a, b)


EMPTY_VECTOR = TermVector({})
