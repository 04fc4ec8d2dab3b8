"""Block-based query inverted file (Section 4.3, Figure 2).

One postings list per term: a plain ``list`` of
:class:`~repro.core.blocks.PostingsBlock` objects whose id ranges are
disjoint and ascending — most terms hold one block, so a list is all a
term owns besides it.  Nothing looks a block up by id: a query's
memberships are the tuple of blocks :meth:`QueryInvertedFile.insert`
returns, one per ``query.terms`` entry in that order, and
:meth:`QueryInvertedFile.remove` takes the query and that tuple back.  With
``block_size = None`` the file degrades to a plain (unblocked) inverted
file — the structure used by the IRT baseline.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.blocks import PostingsBlock
from repro.core.query import DasQuery


class QueryInvertedFile:
    """Term -> postings list mapping for all subscribed queries."""

    def __init__(self, block_size: Optional[int]) -> None:
        if block_size is not None and block_size < 1:
            raise ValueError(f"block_size must be >= 1 or None, got {block_size}")
        self._block_size = block_size
        self._lists: Dict[str, List[PostingsBlock]] = {}
        # Incremental totals: ``DasEngine.index_size_report`` reads them
        # for the Figure 8 footprint and every benchmark run's notes, so
        # they must not be O(terms) walks.
        self._postings_total = 0
        self._blocks_total = 0

    @property
    def block_size(self) -> Optional[int]:
        return self._block_size

    def insert(self, query: DasQuery) -> Tuple[PostingsBlock, ...]:
        """Add a query to every keyword's list; returns the touched
        blocks, one per ``query.terms`` entry, in that order."""
        touched = []
        block_size = self._block_size
        for term in query.terms:
            blocks = self._lists.get(term)
            if blocks is None:
                # A one-element display: the list is allocated at size 1.
                block = PostingsBlock()
                self._lists[term] = [block]
                self._blocks_total += 1
            elif block_size is not None and len(blocks[-1]) >= block_size:
                block = PostingsBlock()
                blocks.append(block)
                self._blocks_total += 1
            else:
                block = blocks[-1]
            block.append(query.query_id)
            self._postings_total += 1
            touched.append(block)
        return tuple(touched)

    def remove(
        self, query: DasQuery, blocks: Tuple[PostingsBlock, ...]
    ) -> None:
        """Drop a query from the blocks :meth:`insert` returned for it,
        and the blocks and lists that become empty."""
        query_id = query.query_id
        for term, block in zip(query.terms, blocks):
            if not block.remove(query_id):
                continue
            self._postings_total -= 1
            if block.query_ids:
                continue
            term_blocks = self._lists[term]
            term_blocks.remove(block)
            self._blocks_total -= 1
            if not term_blocks:
                del self._lists[term]

    def list_for(self, term: str) -> Optional[List[PostingsBlock]]:
        """The term's blocks in id order (never empty), or None."""
        return self._lists.get(term)

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
        for blocks in self._lists.values():
            for block in blocks:
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
        for term, blocks in self._lists.items():
            for block in blocks:
                yield term, block
