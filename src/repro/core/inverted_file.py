"""Block-based query inverted file (Section 4.3, Figure 2).

One postings list per term; each list is a sequence of
:class:`~repro.core.blocks.PostingsBlock` objects whose id ranges are
disjoint and ascending, so the block containing a query id is found by
bisection over a flat ``max_id`` array maintained incrementally (the
previous implementation rebuilt that array on every lookup).  With
``block_size = None`` the file degrades to a plain (unblocked) inverted
file — the structure used by the IRT baseline.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.blocks import PostingsBlock
from repro.core.query import DasQuery


class PostingsList:
    """All blocks of one term."""

    __slots__ = ("term", "blocks", "_max_ids")

    def __init__(self, term: str) -> None:
        self.term = term
        self.blocks: List[PostingsBlock] = []
        #: ``blocks[i].max_id`` mirror kept in lockstep for O(log B)
        #: ``find_block`` without a per-call list rebuild.
        self._max_ids: List[int] = []

    def append(self, query_id: int, block_size: Optional[int]) -> PostingsBlock:
        """Append a posting, opening a new block when the last one is full."""
        if not self.blocks or (
            block_size is not None and len(self.blocks[-1]) >= block_size
        ):
            self.blocks.append(PostingsBlock())
            self._max_ids.append(query_id)
        block = self.blocks[-1]
        block.append(query_id)
        self._max_ids[-1] = query_id
        return block

    def find_block(self, query_id: int) -> Optional[PostingsBlock]:
        """Block whose id range contains ``query_id`` (None if absent)."""
        index = bisect_left(self._max_ids, query_id)
        if index >= len(self.blocks):
            return None
        block = self.blocks[index]
        return block if query_id in block.query_ids else None

    def remove(self, query_id: int) -> bool:
        i = bisect_left(self._max_ids, query_id)
        if i >= len(self.blocks) or not self.blocks[i].remove(query_id):
            return False
        if self.blocks[i].query_ids:
            self._max_ids[i] = self.blocks[i].max_id
        else:
            del self.blocks[i]
            del self._max_ids[i]
        return True

    @property
    def posting_count(self) -> int:
        return sum(len(block) for block in self.blocks)

    def __iter__(self) -> Iterator[PostingsBlock]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


class QueryInvertedFile:
    """Term -> postings list mapping for all subscribed queries."""

    def __init__(self, block_size: Optional[int]) -> None:
        if block_size is not None and block_size < 1:
            raise ValueError(f"block_size must be >= 1 or None, got {block_size}")
        self._block_size = block_size
        self._lists: Dict[str, PostingsList] = {}
        # Incremental totals: the per-batch vectorization heuristic reads
        # these every micro-batch, so they must not be O(terms) walks.
        self._postings_total = 0
        self._blocks_total = 0

    @property
    def block_size(self) -> Optional[int]:
        return self._block_size

    def insert(self, query: DasQuery) -> List[Tuple[str, PostingsBlock]]:
        """Add a query to every keyword's list; returns touched blocks."""
        touched = []
        for term in query.terms:
            postings = self._lists.get(term)
            if postings is None:
                postings = PostingsList(term)
                self._lists[term] = postings
            before = len(postings.blocks)
            block = postings.append(query.query_id, self._block_size)
            self._blocks_total += len(postings.blocks) - before
            self._postings_total += 1
            touched.append((term, block))
        return touched

    def remove(self, query: DasQuery) -> None:
        for term in query.terms:
            postings = self._lists.get(term)
            if postings is None:
                continue
            before = len(postings.blocks)
            if postings.remove(query.query_id):
                self._postings_total -= 1
                self._blocks_total -= before - len(postings.blocks)
            if not postings.blocks:
                del self._lists[term]

    def list_for(self, term: str) -> Optional[PostingsList]:
        return self._lists.get(term)

    def blocks_for_query(
        self, query: DasQuery
    ) -> Iterator[Tuple[str, PostingsBlock]]:
        """The (term, block) memberships of a query — one per keyword."""
        for term in query.terms:
            postings = self._lists.get(term)
            if postings is None:
                continue
            block = postings.find_block(query.query_id)
            if block is not None:
                yield term, block

    # -- accounting (Figure 8) --------------------------------------------------

    @property
    def term_count(self) -> int:
        return len(self._lists)

    @property
    def posting_count(self) -> int:
        return self._postings_total

    @property
    def block_count(self) -> int:
        return self._blocks_total

    def mcs_document_count(self) -> int:
        """Total document references held by MCS summaries."""
        total = 0
        for postings in self._lists.values():
            for block in postings:
                if block.mcs_sets:
                    total += sum(len(cover) for cover in block.mcs_sets)
        return total

    def terms(self) -> Iterable[str]:
        return self._lists.keys()

    def items(self) -> Iterator[Tuple[str, PostingsBlock]]:
        """Every (term, block) pair, term-major in insertion order.

        Read-only traversal for invariant checkers and diagnostics;
        callers must not mutate block metadata.
        """
        for term, postings in self._lists.items():
            for block in postings:
                yield term, block
