"""Minimal Covering Sets (Definitions 4-5) and GreedyMcsGen (Algorithm 1).

For a block ``b`` in term ``w``'s postings list, the *universe*
``U_w(b)`` holds the documents that (1) appear in some member query's
result minus its oldest document and (2) contain ``w``.  A minimal
covering set is a set of universe documents such that every query of the
block holds at least one of them; maximising the number of *disjoint*
MCSs is NP-hard (Theorem 1), so :func:`greedy_mcs_gen` implements the
paper's greedy algorithm (approximation ratio ``s_max/2 + ε``,
Theorem 2), with two robustness refinements over the pseudo-code:

* an incomplete cover (the universe ran dry, or some query has no
  universe document at all) is *discarded* rather than emitted — an
  incomplete "MCS" would make the group bound of Eq. 19 unsafe;
* each emitted cover is post-minimised (redundant members are dropped and
  returned to the universe), enforcing Definition 5's condition (2).
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.core.result_set import QueryResultSet
from repro.stream.document import Document


class CoverSet:
    """One minimal covering set: member documents plus their id set.

    The id frozenset makes invalidation checks (does this cover contain a
    document that just left some member query's result?) O(1) per id
    instead of a scan — invalidation runs on every result update, so this
    is a hot path.
    """

    __slots__ = ("documents", "doc_ids")

    def __init__(self, documents: Sequence[Document]) -> None:
        self.documents: Tuple[Document, ...] = tuple(documents)
        self.doc_ids: FrozenSet[int] = frozenset(
            document.doc_id for document in documents
        )

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def __repr__(self) -> str:
        return f"CoverSet({sorted(self.doc_ids)})"


class BlockUniverse:
    """``U_w(b)`` plus the per-document coverage map ``Q_s(b, d)``.

    Attributes
    ----------
    documents:
        doc_id -> :class:`Document` for every universe member.
    coverage:
        doc_id -> set of query ids whose result (minus the oldest) holds
        the document.
    """

    __slots__ = ("term", "documents", "coverage")

    def __init__(self, term: str) -> None:
        self.term = term
        self.documents: Dict[int, Document] = {}
        self.coverage: Dict[int, Set[int]] = {}

    @property
    def is_empty(self) -> bool:
        return not self.documents


def build_universe(
    term: str,
    query_ids: Iterable[int],
    result_sets: Dict[int, QueryResultSet],
) -> BlockUniverse:
    """Collect ``U_w(b)`` from the block members' current results."""
    universe = BlockUniverse(term)
    coverage = universe.coverage
    for query_id in query_ids:
        for document in islice(result_sets[query_id]._docs, 1, None):
            doc_id = document.doc_id
            holders = coverage.get(doc_id)
            if holders is not None:
                # Already a universe member: it contains the term.
                holders.add(query_id)
                continue
            if term not in document.vector._tf:
                continue
            universe.documents[doc_id] = document
            coverage[doc_id] = {query_id}
    return universe


def greedy_mcs_gen(
    query_ids: Sequence[int],
    universe: BlockUniverse,
) -> List[CoverSet]:
    """Algorithm 1: greedily emit disjoint minimal covering sets.

    Returns MCSs as :class:`CoverSet` objects holding :class:`Document`
    references (resolved once, so bound evaluation needs no store
    lookups).

    Coverage sets are folded into integer bitmasks (one bit per block
    member) so the inner greedy loop — "which remaining document covers
    the most uncovered queries" — is an AND plus a popcount instead of a
    set intersection.  Selection order (including tie-breaks) is
    identical to the direct set formulation.
    """
    all_queries = set(query_ids)
    if not all_queries or universe.is_empty:
        return []
    bit_of = {query_id: 1 << i for i, query_id in enumerate(all_queries)}
    full_mask = (1 << len(bit_of)) - 1
    coverage = universe.coverage
    cover_mask: Dict[int, int] = {}
    for doc_id, holders in coverage.items():
        mask = 0
        for query_id in holders:
            # Holders outside the block's queries contribute nothing
            # (the set formulation intersected them away).
            bit = bit_of.get(query_id)
            if bit is not None:
                mask |= bit
        cover_mask[doc_id] = mask
    remaining: Set[int] = set(universe.documents)
    covers: List[CoverSet] = []
    while remaining:
        selected: List[int] = []
        uncovered = full_mask
        while uncovered:
            best_doc = -1
            best_count = 0
            for doc_id in remaining:
                count = (cover_mask[doc_id] & uncovered).bit_count()
                if count > best_count:
                    best_count = count
                    best_doc = doc_id
            if best_doc < 0:
                break  # no universe document covers the rest
            selected.append(best_doc)
            remaining.discard(best_doc)
            uncovered &= ~cover_mask[best_doc]
        if uncovered:
            # Incomplete cover: put the members back and stop — later
            # passes cannot do better because `remaining` only shrank.
            remaining.update(selected)
            break
        minimal = _minimise_cover(selected, cover_mask, full_mask)
        for doc_id in selected:
            if doc_id not in minimal:
                remaining.add(doc_id)
        covers.append(
            CoverSet([universe.documents[doc_id] for doc_id in minimal])
        )
    return covers


def _minimise_cover(
    selected: Sequence[int],
    cover_mask: Dict[int, int],
    full_mask: int,
) -> Set[int]:
    """Drop members whose removal keeps the set covering (Def. 5 (2))."""
    kept: Set[int] = set(selected)
    for doc_id in list(selected):
        without = kept - {doc_id}
        if not without:
            continue
        covered = 0
        for other in without:
            covered |= cover_mask[other]
        if covered & full_mask == full_mask:
            kept = without
    return kept


def verify_cover(
    cover: Iterable[Document],
    coverage: Dict[int, Set[int]],
    all_queries: Set[int],
) -> bool:
    """True iff every query of the block holds a member of ``cover``."""
    covered: Set[int] = set()
    for document in cover:
        covered |= coverage.get(document.doc_id, set())
    return covered >= all_queries
