"""Bidirectional term <-> integer id mapping.

The engine's hot paths key inverted lists by term strings (Python dict
hashing of short interned strings is fast); the parallel wire format
(``repro.parallel.wire``) ships documents as term-id / count arrays and
keeps worker replicas in sync with a master id space.
:class:`Vocabulary` provides it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional


class Vocabulary:
    """Append-only mapping between terms and dense integer ids."""

    def __init__(self, terms: Optional[Iterable[str]] = None) -> None:
        self._term_to_id: Dict[str, int] = {}
        self._id_to_term: List[str] = []
        if terms is not None:
            for term in terms:
                self.add(term)

    def add(self, term: str) -> int:
        """Intern ``term`` and return its id (existing id if present)."""
        existing = self._term_to_id.get(term)
        if existing is not None:
            return existing
        term_id = len(self._id_to_term)
        self._term_to_id[term] = term_id
        self._id_to_term.append(term)
        return term_id

    def id_of(self, term: str) -> Optional[int]:
        """Id of ``term`` or None if the term was never interned."""
        return self._term_to_id.get(term)

    def term_of(self, term_id: int) -> str:
        """Term for ``term_id``; raises IndexError for unknown ids."""
        return self._id_to_term[term_id]

    def __contains__(self, term: str) -> bool:
        return term in self._term_to_id

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_term)

    def encode(self, tokens: Iterable[str]) -> List[int]:
        """Intern every token and return the id sequence."""
        return [self.add(token) for token in tokens]

    def decode(self, ids: Iterable[int]) -> List[str]:
        """Inverse of :meth:`encode`."""
        return [self._id_to_term[i] for i in ids]

    def tail(self, start: int) -> List[str]:
        """Terms with ids ``>= start``, in id order.

        The sync primitive for replica vocabularies (see
        ``repro.parallel``): a replica that has applied ids ``< start``
        becomes current by appending exactly these terms in order.
        """
        return self._id_to_term[start:]


#: Process-wide master vocabulary of the parallel engines' wire format.
#: Ids are opaque labels — sharing one id space across engines is safe
#: and lets every engine of a process reuse terms already interned.
GLOBAL_VOCABULARY = Vocabulary()
