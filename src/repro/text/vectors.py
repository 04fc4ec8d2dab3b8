"""Sparse term-frequency vectors and similarity measures.

A :class:`TermVector` is the system's canonical document representation:
an immutable map ``term -> frequency`` with its Euclidean norm and token
count precomputed, because cosine similarities (Eq. 6) and language-model
scores (Eq. 3) are evaluated millions of times per experiment.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple


class TermVector:
    """Immutable sparse term-frequency vector.

    Attributes
    ----------
    norm:
        Euclidean norm ``sqrt(sum tf^2)`` — the ``||d.v_d||`` of Eq. 20/22.
    length:
        Total token count ``|d.v_d|`` used by the language model.
    """

    __slots__ = ("_tf", "norm", "length", "_packed", "_backend_cache")

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
        self._packed: Optional[Tuple[Tuple[int, ...], Tuple[float, ...]]] = None
        self._backend_cache: object = None

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
        # Pickle only the term frequencies; norms and the packed caches
        # (which may hold backend-specific arrays) are rebuilt on load.
        return (TermVector, (self._tf,))

    # -- packed representation -----------------------------------------------

    def packed(self) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
        """Interned ``(term_ids, unit_weights)`` arrays, ascending by id.

        Term ids come from the process-wide
        :data:`~repro.text.vocabulary.GLOBAL_VOCABULARY`; weights are
        ``tf/norm`` so a cosine between two vectors is the dot product of
        their aligned weights.  Built once per vector and cached — this
        is the representation the kernel backends operate on.
        """
        packed = self._packed
        if packed is None:
            from repro.text.vocabulary import GLOBAL_VOCABULARY

            norm = self.norm
            if norm == 0.0:
                packed = ((), ())
            else:
                pairs = sorted(
                    (GLOBAL_VOCABULARY.add(term), count)
                    for term, count in self._tf.items()
                )
                packed = (
                    tuple(pair[0] for pair in pairs),
                    tuple(pair[1] / norm for pair in pairs),
                )
            self._packed = packed
        return packed

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
