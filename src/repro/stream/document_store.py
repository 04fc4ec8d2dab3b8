"""Document lists (Figure 1): storage for arrived documents.

The store keeps the text and temporal information of each published
document, serves two access patterns, and bounds memory:

* ``get(doc_id)`` — random access for individual filtering (R2 documents)
  and for resolving minimal-covering-set members;
* ``recent_matching(terms, limit)`` — newest-first scan used when a fresh
  subscription initialises its result set "by traversing the document
  lists" (Section 3);
* eviction — past ``capacity`` documents the oldest *unpinned* documents
  are dropped.  Result sets pin the documents they reference so a live
  result can never dangle.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional

from repro.config import UNLIMITED
from repro.errors import DocumentOrderError, DuplicateDocumentError
from repro.stream.document import Document


class DocumentStore:
    """Ordered store of published documents with pinning and eviction."""

    def __init__(self, capacity: int = UNLIMITED) -> None:
        self._capacity = capacity
        # Insertion order and ``reversed()`` are a plain dict's own.
        self._docs: Dict[int, Document] = {}
        self._pins: Dict[int, int] = {}
        self._last_id: Optional[int] = None
        self._last_time: float = float("-inf")
        # term -> ids of stored documents containing the term, oldest
        # first.  A list, not a deque: most buckets hold one or a few ids,
        # and a deque reserves a 64-slot block for the first.
        self._term_index: Dict[str, List[int]] = {}

    # -- insertion -------------------------------------------------------

    def add(self, document: Document) -> None:
        """Append a document; ids and timestamps must be non-decreasing."""
        doc_id = document.doc_id
        if doc_id in self._docs:
            raise DuplicateDocumentError(f"document {doc_id} already stored")
        if self._last_id is not None and doc_id <= self._last_id:
            raise DocumentOrderError(
                f"document id {doc_id} is not after previous id {self._last_id}"
            )
        # Written so that NaN fails it too: once stored, a NaN time would
        # pass every later comparison.
        if not document.created_at >= self._last_time:
            raise DocumentOrderError(
                f"document {doc_id} created_at {document.created_at} is not "
                f"at or after previous timestamp {self._last_time}"
            )
        self._docs[doc_id] = document
        self._last_id = doc_id
        self._last_time = document.created_at
        for term in document.vector.terms():
            bucket = self._term_index.get(term)
            if bucket is None:
                self._term_index[term] = [doc_id]
            else:
                bucket.append(doc_id)
        self._evict_if_needed()

    # -- access ----------------------------------------------------------

    def get(self, doc_id: int) -> Optional[Document]:
        return self._docs.get(doc_id)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._docs

    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._docs.values())

    def newest_first(self) -> Iterator[Document]:
        return iter(reversed(self._docs.values()))

    def recent_matching(self, terms: Iterable[str], limit: int) -> List[Document]:
        """Newest-first documents containing at least one of ``terms``.

        Used for result-set initialisation of new subscriptions.  At most
        ``limit`` documents are returned; duplicates across terms are
        merged.  A bucket holds the ids of live documents only, oldest
        first (eviction removes an id from every bucket), so one term's
        answer is its bucket's tail as it stands.
        """
        if limit <= 0:
            return []
        terms = tuple(terms)
        if len(terms) == 1:
            bucket = self._term_index.get(terms[0], ())
            return list(map(self._docs.get, islice(reversed(bucket), limit)))
        candidate_ids: set = set()
        for term in terms:
            bucket = self._term_index.get(term)
            if bucket:
                # The most recent `limit` ids of each term bucket, walked
                # from the tail, so a long bucket costs `limit` steps.
                candidate_ids.update(islice(reversed(bucket), limit))
        ordered = sorted(candidate_ids, reverse=True)[:limit]
        return list(map(self._docs.get, ordered))

    # -- pinning & eviction ----------------------------------------------

    def pin(self, doc_id: int) -> None:
        """Protect a document from eviction (refcounted)."""
        self._pins[doc_id] = self._pins.get(doc_id, 0) + 1

    def unpin(self, doc_id: int) -> None:
        """Release one pin; the document becomes evictable at zero pins."""
        count = self._pins.get(doc_id, 0)
        if count <= 1:
            self._pins.pop(doc_id, None)
        else:
            self._pins[doc_id] = count - 1

    def pin_count(self, doc_id: int) -> int:
        return self._pins.get(doc_id, 0)

    def _evict_if_needed(self) -> None:
        if self._capacity == UNLIMITED:
            return
        excess = len(self._docs) - self._capacity
        if excess <= 0:
            return
        # Scan oldest-first, skipping pinned documents and the newest one:
        # it is still being published, so no result set has had the chance
        # to pin it yet (a later ``add`` evicts it if none did).  Both may
        # push the store over capacity; that is deliberate — results must
        # stay resolvable.
        victims = []
        for doc_id in self._docs:
            if doc_id != self._last_id and self._pins.get(doc_id, 0) == 0:
                victims.append(doc_id)
                if len(victims) == excess:
                    break
        for doc_id in victims:
            document = self._docs.pop(doc_id)
            for term in document.vector.terms():
                bucket = self._term_index.get(term)
                if bucket is None:
                    continue
                try:
                    bucket.remove(doc_id)
                except ValueError:
                    pass
                if not bucket:
                    del self._term_index[term]
