"""Document lists (Figure 1): storage for arrived documents.

The store keeps the text and temporal information of each published
document and serves two access patterns:

* ``get(doc_id)`` — random access for individual filtering (R2 documents)
  and for resolving minimal-covering-set members;
* ``recent_matching(terms, limit)`` — newest-first scan used when a fresh
  subscription initialises its result set "by traversing the document
  lists" (Section 3).

It keeps every document: the paper bounds memory with ``Φ_max`` on the
aggregated-weight summaries only (Definition 7), so a result row can
never dangle.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional

from repro.errors import DocumentOrderError, DuplicateDocumentError
from repro.stream.document import Document


class DocumentStore:
    """Ordered store of published documents."""

    def __init__(self) -> None:
        # Insertion order and ``reversed()`` are a plain dict's own.
        self._docs: Dict[int, Document] = {}
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
        merged.  A bucket holds the ids of its term's documents, oldest
        first, so one term's answer is its bucket's tail as it stands.
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

    # -- placeholders ----------------------------------------------------

    def pin(self, *args, **kwargs):
        """Placeholder: ``benchmarks/e2e/tracing.py`` patches it by name,
        and the benchmark PR (ROADMAP 4(b)) deletes it."""
        raise NotImplementedError("document-store eviction was deleted")

    def unpin(self, *args, **kwargs):
        """Placeholder, like :meth:`pin`."""
        raise NotImplementedError("document-store eviction was deleted")
