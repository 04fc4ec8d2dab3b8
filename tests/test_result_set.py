"""Tests for the query result table (Table 3) and its maintenance."""

from __future__ import annotations

import gc
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig
from repro.core.agg_weights import AggregatedTermWeights, MemoryBudget
from repro.core.result_set import AW_RESIDENT, IN_R1, QueryResultSet
from repro.scoring.diversity import diversity_coefficient
from repro.scoring.recency import ExponentialDecay
from repro.stream.document import Document
from repro.text.vectors import TermVector, cached_cosines, cosine_similarity
from tests.conftest import table_rows


def doc(i, tokens):
    return Document.from_tokens(i, tokens, float(i))


def admit(rs, document, trel=0.1):
    rs.admit(document, trel)


def newer_sim_sum(rs, index=0):
    """Brute-force Eq. 24: entry ``index`` against every newer entry."""
    entries = table_rows(rs)
    return sum(
        cosine_similarity(entries[index].document.vector, other.document.vector)
        for other in entries[index + 1 :]
    )


def test_admit_fills_in_order():
    rs = QueryResultSet(k=3)
    for i in range(3):
        admit(rs, doc(i, ["a"]))
    assert rs.is_full
    assert [d.doc_id for d in rs.documents()] == [0, 1, 2]
    assert [d.doc_id for d in rs.documents_newest_first()] == [2, 1, 0]
    assert table_rows(rs)[0].document.doc_id == 0
    assert 1 in rs and 9 not in rs


def test_admit_beyond_k_raises():
    rs = QueryResultSet(k=1)
    admit(rs, doc(0, ["a"]))
    with pytest.raises(ValueError):
        admit(rs, doc(1, ["a"]))


def test_admit_wrong_sims_length():
    # The per-entry similarity argument is gone; what remains of this
    # case is its k = 2 edge: the first admit leaves a warm-up table —
    # rows only, nothing metered — and the second, which fills it,
    # meters no cosine and exactly one Lemma 6 dot (the oldest row
    # against the summary) and leaves the newcomer's slot at zero.
    rs = QueryResultSet(k=2)
    assert rs.admit(doc(0, ["a"]), 0.1) == (0, 0)
    assert rs.aggregated_weights is None and rs.aw_entry_count == 0
    assert table_rows(rs)[0].sim_acc == 0.0
    assert rs.admit(doc(1, ["a", "b"]), 0.1) == (0, 1)
    assert rs.aw_entry_count == 2
    head = table_rows(rs)[0]
    assert head.sim_acc == pytest.approx(newer_sim_sum(rs), abs=1e-12)
    assert table_rows(rs)[1].sim_acc == 0.0


def test_sim_acc_tracks_newer_documents():
    """Head-only contract: the oldest entry's Eq. 24 value is complete
    after every arrival; entries behind it are owed their similarities
    to summarised (R1) arrivals until promotion."""
    rs = QueryResultSet(k=3)
    a, b, c = doc(0, ["x"]), doc(1, ["x", "y"]), doc(2, ["y"])
    for d in (a, b, c):
        admit(rs, d)
    sim_ab = cosine_similarity(a.vector, b.vector)
    sim_ac = cosine_similarity(a.vector, c.vector)
    entries = table_rows(rs)
    assert entries[0].sim_acc == pytest.approx(sim_ab + sim_ac)
    assert entries[1].sim_acc == 0.0  # c is AW-resident: owed, not paid
    assert entries[2].sim_acc == 0.0
    # Without a summary every arrival is paid pair by pair, as before.
    plain = QueryResultSet(k=3, track_aggregated_weights=False)
    for d in (a, b, c):
        admit(plain, d)
    assert table_rows(plain)[0].sim_acc == pytest.approx(sim_ab + sim_ac)
    assert table_rows(plain)[1].sim_acc == pytest.approx(
        cosine_similarity(b.vector, c.vector)
    )


def test_replace_evicts_oldest_and_updates_sim_acc():
    rs = QueryResultSet(k=3)
    a, b, c, d = (
        doc(0, ["x"]), doc(1, ["x", "y"]), doc(2, ["y"]), doc(3, ["x", "y", "y"])
    )
    for document in (a, b, c):
        admit(rs, document)
    evicted, cosines, aw_dots = rs.replace(d, 0.2)
    assert evicted is a
    assert [x.doc_id for x in rs.documents()] == [1, 2, 3]
    # d joined the summary: no per-entry cosine, one Lemma 6 dot product
    # that completes the promoted b against its newer co-residents c, d
    # (not against the evicted, older a).
    assert (cosines, aw_dots) == (0, 1)
    assert table_rows(rs)[0].sim_acc == pytest.approx(
        cosine_similarity(b.vector, c.vector)
        + cosine_similarity(b.vector, d.vector),
        abs=1e-12,
    )
    assert table_rows(rs)[1].sim_acc == 0.0


def test_replace_empty_raises():
    rs = QueryResultSet(k=2)
    with pytest.raises(ValueError):
        rs.replace(doc(0, ["a"]), 0.1)


def test_replace_wrong_sims_length():
    # The per-entry similarity argument is gone; what remains of this
    # case is its k = 1 edge: the newcomer *is* the new oldest — nothing
    # to promote, no cosine, no dot product, an empty Eq. 24 sum.
    rs = QueryResultSet(k=1)
    first = doc(0, ["a"])
    admit(rs, first)
    evicted, cosines, aw_dots = rs.replace(doc(1, ["a"]), 0.1)
    assert evicted is first
    assert (cosines, aw_dots) == (0, 0)
    assert table_rows(rs)[0].sim_acc == 0.0
    assert rs.aw_entry_count == 0


def test_dr_oldest_closed_form():
    rs = QueryResultSet(k=3)
    decay = ExponentialDecay(2.0)
    for i, tokens in enumerate((["x"], ["x", "y"], ["z"])):
        admit(rs, doc(i, tokens), trel=0.5)
    alpha = 0.4
    now = 2.0
    value = rs.dr_oldest(now, decay, alpha)
    entry = table_rows(rs)[0]
    coeff = (2 - 2 * alpha) / 2
    expected = alpha * 0.5 * decay.at(0.0, now) + coeff * (2 - entry.sim_acc)
    assert value == pytest.approx(expected)


def test_static_dr_oldest_is_time_free():
    rs = QueryResultSet(k=2)
    admit(rs, doc(0, ["x"]), trel=0.3)
    admit(rs, doc(1, ["y"]), trel=0.2)
    alpha = 0.3
    static = rs.static_dr_oldest(alpha)
    # equals dr_oldest with no decay (T = 1)
    from repro.scoring.recency import NO_DECAY

    assert static == pytest.approx(rs.dr_oldest(100.0, NO_DECAY, alpha))


def test_similarity_sum_excludes_oldest():
    rs = QueryResultSet(k=3, track_aggregated_weights=False)
    for i in range(3):
        admit(rs, doc(i, ["x"]))
    probe = TermVector({"x": 1})
    total, direct, aw_used = rs.similarity_sum(probe)
    assert total == pytest.approx(2.0)  # entries 1 and 2 only
    assert direct == 2
    assert aw_used == 0


def test_similarity_sum_with_aw_matches_direct():
    rs_aw = QueryResultSet(k=4, track_aggregated_weights=True)
    rs_plain = QueryResultSet(k=4, track_aggregated_weights=False)
    docs = [doc(i, tokens) for i, tokens in enumerate(
        (["x"], ["x", "y"], ["y", "z"], ["z"]))]
    for d in docs:
        admit(rs_aw, d)
        admit(rs_plain, d)
    probe = TermVector({"x": 2, "z": 1})
    total_aw, _, used = rs_aw.similarity_sum(probe)
    total_plain, _, _ = rs_plain.similarity_sum(probe)
    assert used == 1
    assert total_aw == pytest.approx(total_plain, abs=1e-9)


def test_budget_splits_r1_r2():
    budget = MemoryBudget(3)  # room for ~1 document of 2-3 terms
    rs = QueryResultSet(k=4, budget=budget)
    admit(rs, doc(0, ["a", "b"]))
    admit(rs, doc(1, ["c", "d"]))
    admit(rs, doc(2, ["e", "f"]))
    # Warm-up: no row is on either side yet and Φ_max is untouched.
    assert budget.used == 0
    assert not any(e.in_r1 or e.aw_resident for e in table_rows(rs))
    admit(rs, doc(3, ["g"]))
    # The fill settles the rows in row order against the budget.
    entries = table_rows(rs)
    assert not entries[0].aw_resident  # oldest: never reserves
    assert entries[1].aw_resident and entries[1].in_r1  # fits (2 entries)
    assert not entries[2].aw_resident and not entries[2].in_r1  # R2
    assert entries[3].aw_resident and entries[3].in_r1  # fits the last slot
    assert budget.used == 3
    assert rs._r2_count == 1


def test_replace_releases_budget_of_new_oldest():
    budget = MemoryBudget(10)
    rs = QueryResultSet(k=2, budget=budget)
    admit(rs, doc(0, ["a"]))
    admit(rs, doc(1, ["b", "c"]))  # reserves 2
    assert budget.used == 2
    rs.replace(doc(2, ["d"]), 0.1)
    # doc 1 became the oldest: its 2 entries are released; doc 2 reserved 1.
    assert budget.used == 1
    assert not table_rows(rs)[0].aw_resident


def test_release_budget_on_teardown():
    budget = MemoryBudget(10)
    rs = QueryResultSet(k=3, budget=budget)
    for i in range(3):
        admit(rs, doc(i, ["t%d" % i, "u"]))
    assert budget.used > 0
    rs.release_budget()
    assert budget.used == 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=5),
        min_size=3,
        max_size=10,
    )
)
def test_sim_acc_invariant_under_churn(token_lists):
    """After any admit/replace sequence the oldest entry's sim_acc equals
    the sum of its similarities to the newer co-resident documents, and
    with no summary to defer to every entry's does."""
    k = 3
    rs = QueryResultSet(k=k)
    plain = QueryResultSet(k=k, track_aggregated_weights=False)
    for i, tokens in enumerate(token_lists):
        document = doc(i, tokens)
        for table in (rs, plain):
            if not table.is_full:
                admit(table, document)
            else:
                table.replace(document, 0.1)
    head = table_rows(rs)[0]
    assert head.sim_acc == pytest.approx(newer_sim_sum(rs), abs=1e-9)
    for index, entry in enumerate(table_rows(plain)):
        assert entry.sim_acc == pytest.approx(
            newer_sim_sum(plain, index), abs=1e-9
        )


#: Token alphabet of the churn below: few letters so duplicates (Sim = 1)
#: are common; the empty list is a zero-norm vector.
_CHURN_TOKENS = st.lists(st.sampled_from("abcd"), min_size=0, max_size=4)


def _churn_table(k, summary, alpha):
    if summary == "unlimited":
        return QueryResultSet(k=k, alpha=alpha)
    if summary == "tight":
        # Room for about one small document: most arrivals land in R2.
        return QueryResultSet(k=k, budget=MemoryBudget(3), alpha=alpha)
    return QueryResultSet(k=k, track_aggregated_weights=False, alpha=alpha)


def assert_kept_thresholds(table, now, decay, alpha):
    """The table's kept halves of Eq. 25 equal the from-scratch reference
    forms with a plain ``==`` (the run loop decides on them); a table
    below k keeps none."""
    kept = (table.kept_rel, table.kept_div, table.kept_created)
    if not table.is_full:
        assert kept == (None, None, None)
        return
    recency = decay.at(table.kept_created, now)
    assert table.kept_rel * recency + table.kept_div == table.dr_oldest(
        now, decay, alpha
    )
    assert table.kept_rel + table.kept_div == table.static_dr_oldest(alpha)
    assert table.kept_created == table_rows(table)[0].document.created_at


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from([1, 2, 3, 6]),
    summary=st.sampled_from(["unlimited", "tight", "none"]),
    seeds=st.integers(min_value=0, max_value=6),
    release=st.booleans(),
    token_lists=st.lists(_CHURN_TOKENS, min_size=1, max_size=24),
    trels=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=24, max_size=24
    ),
)
def test_head_sim_acc_under_churn(
    k, summary, seeds, release, token_lists, trels
):
    """A warm-up admit meters nothing and accumulates nothing; from the
    seed/admit that fills the table on, after *every* seed/admit/replace
    — any k, with an unlimited summary, a ``Φ_max`` forcing R2 rows, or
    no summary — the oldest entry's ``sim_acc`` is the brute-force Eq. 24
    sum, ``dr_oldest`` the value computed from scratch, and the kept
    thresholds equal the reference forms exactly (also after a final
    ``release_budget``); the meters never exceed the per-entry path."""
    decay = ExponentialDecay(1.01)
    alpha = 0.4
    rs = _churn_table(k, summary, alpha)
    coeff = (2 - 2 * alpha) / (k - 1) if k > 1 else 0.0
    documents = [doc(i, tokens) for i, tokens in enumerate(token_lists)]
    seeds = min(seeds, k, len(documents))
    now = 0.0
    for i in range(max(seeds, 1) - 1, len(documents)):
        document = documents[i]
        replacing = rs.is_full
        if i < seeds:
            cosines, aw_dots = rs.seed(documents[:seeds], trels[:seeds])
        elif replacing:
            _evicted, cosines, aw_dots = rs.replace(document, trels[i])
        else:
            cosines, aw_dots = rs.admit(document, trels[i])
        now = i + 0.5
        assert_kept_thresholds(rs, now, decay, alpha)
        if not rs.is_full:
            assert (cosines, aw_dots) == (0, 0)
            assert all(e.sim_acc == 0.0 for e in table_rows(rs))
            continue
        if replacing:
            # R2 arrival: the per-entry path; R1: promotion pays instead.
            assert cosines == (0 if table_rows(rs)[-1].aw_resident else k - 1)
        else:
            # The fill: each row left out of the summary pays its cosines
            # to the rows before it, the rest is one dot product.
            assert cosines == sum(
                index
                for index, e in enumerate(table_rows(rs))
                if index and not e.aw_resident
            )
        assert aw_dots <= 1
        head = table_rows(rs)[0]
        expected = newer_sim_sum(rs)
        assert head.sim_acc == pytest.approx(expected, abs=1e-9)
        scratch = alpha * head.trel * decay.at(
            head.document.created_at, now
        ) + coeff * ((k - 1) - expected)
        assert rs.dr_oldest(now, decay, alpha) == pytest.approx(
            scratch, abs=1e-9
        )
        assert rs.static_dr_oldest(alpha) == pytest.approx(
            alpha * head.trel + coeff * ((k - 1) - expected), abs=1e-9
        )
    if release:
        rs.release_budget()
        assert_kept_thresholds(rs, now, decay, alpha)


def _seed_table(summary, k):
    """``(table, budget)`` for one ``Φ_max`` regime of the seed property."""
    if summary == "none":
        return QueryResultSet(k=k, track_aggregated_weights=False), None
    budget = {
        "unlimited": None,
        "tight": MemoryBudget(3),  # about one small document: forces R2
        "zero": MemoryBudget(0),
    }[summary]
    return QueryResultSet(k=k, budget=budget), budget


def _table_state(table):
    return (
        [
            (e.document.doc_id, e.trel, e.sim_acc, e.in_r1, e.aw_resident)
            for e in table_rows(table)
        ],
        table._r2_count,
        None
        if table.aggregated_weights is None
        else dict(table.aggregated_weights._weights),
    )


_SUMMARIES = st.sampled_from(["unlimited", "tight", "zero", "none"])


@settings(max_examples=80, deadline=None)
@given(
    k=st.sampled_from([1, 2, 3, 6]),
    summary=_SUMMARIES,
    token_lists=st.lists(_CHURN_TOKENS, min_size=0, max_size=6),
    trels=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=6, max_size=6
    ),
)
def test_seed_equals_sequential_admits(k, summary, token_lists, trels):
    """``seed`` leaves the table as one ``admit`` per seed would — rows
    only below k; at k the same rows and R1/R2 flags, ``Φ_max`` use, AW
    table and accumulated similarities, every float ``==`` (both settle
    the same rows once) — and meters the same work."""
    documents = [doc(i, tokens) for i, tokens in enumerate(token_lists[:k])]
    trels = trels[: len(documents)]
    seeded, seeded_budget = _seed_table(summary, k)
    twin, twin_budget = _seed_table(summary, k)
    metered = seeded.seed(documents, trels)
    admitted = [
        twin.admit(document, trel) for document, trel in zip(documents, trels)
    ]
    assert _table_state(seeded) == _table_state(twin)
    if seeded_budget is not None:
        assert seeded_budget.used == twin_budget.used
    assert metered == (admitted[-1] if admitted else (0, 0))
    assert all(work == (0, 0) for work in admitted[:-1])
    if len(documents) < k:
        assert metered == (0, 0)
        assert seeded.aggregated_weights is None


@settings(max_examples=120, deadline=None)
@given(
    k=st.sampled_from([1, 2, 3, 6]),
    summary=_SUMMARIES,
    seeds=st.integers(min_value=0, max_value=6),
    token_lists=st.lists(_CHURN_TOKENS, min_size=1, max_size=14),
)
def test_summaries_start_at_fill(k, summary, seeds, token_lists):
    """Drive ``seed`` / ``admit`` / ``replace``.  Below k the table is
    rows: no AW object, ``Φ_max`` untouched, every ``sim_acc`` zero.  The
    call that fills it settles the rows in row order — AW weights ``==``
    a table folded with ``add_document`` row by row, flags / ``_r2_count``
    / budget as sequential ``try_reserve`` gives, head ``sim_acc`` the
    brute-force sum — and every later replace keeps the books straight."""
    table, budget = _seed_table(summary, k)
    documents = [doc(i, tokens) for i, tokens in enumerate(token_lists)]
    seeds = min(seeds, k, len(documents))
    alpha, decay = 0.4, ExponentialDecay(1.01)
    coeff = (2 - 2 * alpha) / (k - 1) if k > 1 else 0.0
    settled = False
    for step in range(seeds - 1, len(documents)):
        if step < seeds:
            table.seed(documents[:seeds], [0.25] * seeds)
        elif table.is_full:
            table.replace(documents[step], 0.25)
        else:
            table.admit(documents[step], 0.25)
        entries = table_rows(table)
        if not table.is_full:
            assert table.aggregated_weights is None
            assert table.aw_entry_count == 0 and table._r2_count == 0
            assert budget is None or budget.used == 0
            assert all(
                (e.sim_acc, e.in_r1, e.aw_resident) == (0.0, False, False)
                for e in entries
            )
            continue
        if not settled:
            settled = True
            # Reference: settle rows 1..k-1 one by one, in row order.
            _twin, reference = _seed_table(summary, k)
            expected_aw = (
                AggregatedTermWeights() if summary != "none" else None
            )
            flags = [False]
            for entry in entries[1:]:
                vector = entry.document.vector
                joins = expected_aw is not None and (
                    reference is None or reference.try_reserve(len(vector))
                )
                if joins:
                    expected_aw.add_document(vector)
                flags.append(joins)
            assert [e.aw_resident for e in entries] == flags
            assert [e.in_r1 for e in entries] == flags
            if expected_aw is None:
                assert table.aggregated_weights is None
            else:
                assert (
                    table.aggregated_weights._weights == expected_aw._weights
                )
            # Rows behind the head hold their newer-R2 similarities only.
            for index, entry in enumerate(entries[1:], 1):
                assert entry.sim_acc == pytest.approx(
                    sum(
                        cosine_similarity(
                            entry.document.vector, other.document.vector
                        )
                        for other in entries[index + 1 :]
                        if not other.aw_resident
                    ),
                    abs=1e-12,
                )
        assert table._r2_count == sum(not e.aw_resident for e in entries[1:])
        if budget is not None:
            assert budget.used == sum(
                len(e.document.vector) for e in entries if e.aw_resident
            )
        head = entries[0]
        assert not head.aw_resident
        expected = newer_sim_sum(table)
        assert head.sim_acc == pytest.approx(expected, abs=1e-12)
        now = float(step)
        assert table.dr_oldest(now, decay, alpha) == pytest.approx(
            alpha * head.trel * decay.at(head.document.created_at, now)
            + coeff * ((k - 1) - expected),
            abs=1e-12,
        )


def test_seed_needs_an_empty_table_and_at_most_k_seeds():
    rs = QueryResultSet(k=2)
    with pytest.raises(ValueError):
        rs.seed([doc(i, ["a"]) for i in range(3)], [0.1] * 3)
    rs.seed([doc(0, ["a"])], [0.1])
    with pytest.raises(ValueError):
        rs.seed([doc(1, ["a"])], [0.1])


@settings(max_examples=150, deadline=None)
@given(
    k=st.sampled_from([1, 2, 3, 6]),
    summary=_SUMMARIES,
    seeds=st.integers(min_value=0, max_value=6),
    token_lists=st.lists(_CHURN_TOKENS, min_size=1, max_size=14),
    probes=st.lists(
        st.lists(st.sampled_from("abcdz"), min_size=0, max_size=6),
        min_size=1,
        max_size=4,
    ),
)
def test_similarity_floor_never_exceeds_the_sum(
    k, summary, seeds, token_lists, probes
):
    """ISSUE 23: after every ``seed`` / ``admit`` / ``replace`` — any k,
    unlimited / R2-forcing / zero ``Φ_max`` or no summary, duplicates and
    zero-norm rows — ``similarity_floor(term, v)`` is at most
    ``similarity_sum(v)`` for every term of every probe, compared with a
    plain ``<=``: the floor is one addend of the very float sum it
    bounds.  It is exactly 0.0 below k, without a summary and for a term
    the summary lacks, and the summary never holds a weight <= 0 (a
    negative addend would break the bound)."""
    table, _budget = _seed_table(summary, k)
    documents = [doc(i, tokens) for i, tokens in enumerate(token_lists)]
    vectors = [TermVector.from_tokens(tokens) for tokens in probes]
    seeds = min(seeds, k, len(documents))
    for step in range(seeds - 1, len(documents)):
        if step < seeds:
            table.seed(documents[:seeds], [0.25] * seeds)
        elif table.is_full:
            table.replace(documents[step], 0.25)
        else:
            table.admit(documents[step], 0.25)
        aw = table.aggregated_weights
        assert (aw is None) == (summary == "none" or not table.is_full)
        if aw is not None:
            assert all(weight > 0.0 for weight in aw._weights.values())
        for vector in vectors:
            total = table.similarity_sum(vector)[0] if table.is_full else None
            for term in vector.terms():
                floor = table.similarity_floor(term, vector)
                if aw is None or term not in aw._weights:
                    assert floor == 0.0
                else:
                    assert floor == (
                        aw.weight(term) * vector.frequency(term)
                    ) / vector.norm
                    assert 0.0 < floor <= total
            # A term the probe lacks has no addend, summarised or not.
            for term in "aq":
                if term not in vector:
                    assert table.similarity_floor(term, vector) == 0.0


def _tracked_count(table):
    """Collector-tracked objects reachable from ``table`` through
    ``gc.get_referents``, itself included, other than the ``Document``s
    (owned by the store); types are not walked into."""
    seen = {id(table)}
    stack = [table]
    count = 1
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) in seen or not gc.is_tracked(ref):
                continue
            seen.add(id(ref))
            if isinstance(ref, Document):
                continue
            count += 1
            if not isinstance(ref, type):
                stack.append(ref)
    return count


#: Tracked objects :func:`_tracked_count` reached from a full table when
#: every table carried ``Sim_acc`` and flag columns from its first row:
#: the table, its document list, its two ``array('d')`` columns and its
#: AW summary (the object and its dict), plus, with a budget, the
#: ``MemoryBudget`` and its instance dict.
_ALWAYS_COLUMNS_TRACKED = {None: 8, 5: 10}


@pytest.mark.parametrize("phi_max", [None, 5])
@pytest.mark.parametrize("fill", ["admit", "seed"])
def test_row_state_is_not_gc_tracked(fill, phi_max):
    """A full table reaches the same tracked objects whatever ``k`` is:
    its rows are columns, not one object each, and the R2 columns add
    one tracked array where they exist — never more than a table that
    always carried them.  A tight ``Φ_max`` leaves rows on both sides
    of the R1/R2 split."""
    counts = {}
    for k in (2, 20, 40):
        documents = [
            doc(i, [f"t{i % 7}", f"u{i % 5}", "w"]) for i in range(2 * k + 3)
        ]
        budget = None if phi_max is None else MemoryBudget(phi_max)
        table = QueryResultSet(k, budget=budget)
        if fill == "seed":
            table.seed(documents[:k], [0.5] * k)
        else:
            for document in documents[:k]:
                table.admit(document, 0.5)
        for document in documents[k:]:
            table.replace(document, 0.25)
        assert table.is_full
        columns = table._flags is not None
        if phi_max is not None and k > 2:
            flags = [row[4] for row in table.rows()[1:]]
            assert any(flags) and not all(flags) and columns
        counts[k] = _tracked_count(table)
        assert counts[k] <= _ALWAYS_COLUMNS_TRACKED[phi_max] - (not columns)
        # Only the ``Sim_acc`` column is tracked (a bytearray is not).
        assert counts[k] - columns == _ALWAYS_COLUMNS_TRACKED[phi_max] - 1


def test_rows_is_a_tuple_copy_of_the_columns():
    table = QueryResultSet(k=3, budget=MemoryBudget(2))
    documents = [doc(i, [f"t{i}", "w"]) for i in range(4)]
    for document in documents[:3]:
        table.admit(document, 0.5)
    table.replace(documents[3], 0.25)
    rows = table.rows()
    assert [type(row) for row in rows] == [tuple] * 3
    assert [row[0] for row in rows] == documents[1:]
    assert [row[1] for row in rows] == [0.5, 0.5, 0.25]
    # Row 1 joined the summary at the fill and left it at promotion;
    # the budget of 2 then held the newest row's two terms.
    assert [row[3:] for row in rows] == [
        (True, False),
        (False, False),
        (True, True),
    ]
    rows.pop()
    assert table.size == 3


# -- the lean layout against a table that always carries both columns -----------


class _AlwaysColumnsTable:
    """Reference result table holding ``Sim_acc`` and the flag byte of
    every row from its first admit, the oldest row included — what
    :class:`QueryResultSet` stores only while a row is in R2.  Same
    maintenance, same float expressions in the same order."""

    def __init__(self, k, budget=None, track_aggregated_weights=True):
        self.k = k
        self._coeff = diversity_coefficient(EngineConfig.alpha, k)
        self._docs, self._trels = [], array("d")
        self._sim, self._flags = array("d"), bytearray()
        self._budget, self._track_aw = budget, track_aggregated_weights
        self._aw, self._r2_count = None, 0
        self.kept_rel = self.kept_div = self.kept_created = None

    @property
    def is_full(self):
        return len(self._docs) >= self.k

    def rows(self):
        return [
            (document, trel, sim, bool(flag & IN_R1), bool(flag & AW_RESIDENT))
            for document, trel, sim, flag in zip(
                self._docs, self._trels, self._sim, self._flags
            )
        ]

    def dr_oldest(self, now, decay, alpha):
        recency = decay.at(self._docs[0].created_at, now)
        pairs = len(self._docs) - 1
        return alpha * self._trels[0] * recency + self._coeff * (
            pairs - self._sim[0]
        )

    def static_dr_oldest(self, alpha):
        pairs = len(self._docs) - 1
        return alpha * self._trels[0] + self._coeff * (pairs - self._sim[0])

    def similarity_sum(self, vector):
        docs, total, aw_used = self._docs, 0.0, 0
        if self._aw is None:
            rows = docs[1:]
        else:
            total += self._aw.similarity_sum(vector)
            aw_used = 1
            if not self._r2_count:
                return total, 0, aw_used
            rows = [
                docs[i]
                for i in range(1, len(docs))
                if not self._flags[i] & AW_RESIDENT
            ]
        tail = 0.0
        for sim in cached_cosines(vector, rows, None):
            tail += sim
        return total + tail, len(rows), aw_used

    def admit(self, document, trel):
        self._docs.append(document)
        self._trels.append(trel)
        self._sim.append(0.0)
        self._flags.append(0)
        return self._settle() if len(self._docs) == self.k else (0, 0)

    def seed(self, documents, trels):
        for document, trel in zip(documents, trels):
            self._docs.append(document)
            self._trels.append(trel)
            self._sim.append(0.0)
            self._flags.append(0)
        return self._settle() if len(self._docs) == self.k else (0, 0)

    def _settle(self):
        docs, sim, flags = self._docs, self._sim, self._flags
        if self._track_aw:
            self._aw = AggregatedTermWeights()
        cosines = 0
        for index in range(1, len(docs)):
            if self._join_summary(docs[index].vector):
                flags[index] = IN_R1 | AW_RESIDENT
                continue
            for older, value in enumerate(
                cached_cosines(docs[index].vector, docs[:index], None)
            ):
                sim[older] += value
            cosines += index
        aw_dots = 0
        if self._r2_count < len(docs) - 1:
            sim[0] += self._aw.similarity_sum(docs[0].vector)
            aw_dots = 1
        self._keep()
        return cosines, aw_dots

    def _keep(self):
        self.kept_rel = EngineConfig.alpha * self._trels[0]
        self.kept_div = self._coeff * ((len(self._docs) - 1) - self._sim[0])
        self.kept_created = self._docs[0].created_at

    def replace(self, document, trel):
        docs, sim, flags = self._docs, self._sim, self._flags
        count, aw, cosines, flag = len(docs), self._aw, 0, 0
        if count > 1:
            if flags[1] & AW_RESIDENT:
                aw.remove_document(docs[1].vector)
                flags[1] = IN_R1
                if self._budget is not None:
                    self._budget.release(len(docs[1].vector))
            else:
                self._r2_count -= 1
            if self._join_summary(document.vector):
                flag = IN_R1 | AW_RESIDENT
            else:
                sims = cached_cosines(document.vector, docs[1:], None)
                for index, value in enumerate(sims, 1):
                    sim[index] += value
                cosines = len(sims)
        evicted = docs.pop(0)
        del self._trels[0], sim[0], flags[0]
        docs.append(document)
        self._trels.append(trel)
        sim.append(0.0)
        flags.append(flag)
        aw_dots = 0
        if count > 1 and aw is not None:
            sim[0] += aw.similarity_sum(docs[0].vector)
            aw_dots = 1
        self._keep()
        return evicted, cosines, aw_dots

    def _join_summary(self, vector):
        if self._aw is not None and (
            self._budget is None or self._budget.try_reserve(len(vector))
        ):
            self._aw.add_document(vector)
            return True
        self._r2_count += 1
        return False

    def release_budget(self):
        if self._budget is None:
            return
        for index, flag in enumerate(self._flags):
            if flag & AW_RESIDENT:
                self._budget.release(len(self._docs[index].vector))
                self._flags[index] = flag & IN_R1
                self._r2_count += 1


def _read_back(table, probe, now, decay):
    """Everything a reader gets out of a table, floats as ``.hex()``."""
    def hexed(value):
        return value.hex() if isinstance(value, float) else value

    rows = [
        (document.doc_id, trel.hex(), sim.hex(), in_r1, aw_resident)
        for document, trel, sim, in_r1, aw_resident in table.rows()
    ]
    kept = [hexed(v) for v in (table.kept_rel, table.kept_div, table.kept_created)]
    state = [rows, kept, table._r2_count]
    if table._aw is not None:
        state.append([(t, w.hex()) for t, w in table._aw._weights.items()])
    if len(rows) >= table.k:
        alpha = EngineConfig.alpha
        state += [
            table.dr_oldest(now, decay, alpha).hex(),
            table.static_dr_oldest(alpha).hex(),
            [hexed(v) for v in table.similarity_sum(probe)],
        ]
    return state


_LAYOUT_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            _CHURN_TOKENS,
            st.floats(min_value=0.0, max_value=1.0),
        ),
        st.tuples(st.just("seed"), st.integers(min_value=0, max_value=6)),
        st.tuples(st.just("release")),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(
    k=st.sampled_from([1, 2, 3, 5]),
    regime=st.sampled_from(["unlimited", "tight", "none"]),
    ops=_LAYOUT_OPS,
    probe=st.lists(st.sampled_from("abcde"), min_size=1, max_size=4),
)
def test_lean_layout_reads_back_an_always_columns_table(k, regime, ops, probe):
    """Random admit / seed / replace / ``release_budget`` runs without a
    budget, with a tight ``Φ_max`` (so R2 columns appear mid-life) and
    without AW: every row, kept threshold, ``dr_oldest``, Eq. 13 term,
    ``similarity_sum``, AW weight, returned work and budget use is bit
    for bit the reference's, and the R2 columns exist only once some
    non-oldest row has been out of the summary."""
    budgets = [MemoryBudget(6) if regime == "tight" else None for _ in "ab"]
    track = regime != "none"
    lean = QueryResultSet(k, budget=budgets[0], track_aggregated_weights=track)
    reference = _AlwaysColumnsTable(
        k, budget=budgets[1], track_aggregated_weights=track
    )
    decay, probe = ExponentialDecay(1.01), TermVector.from_tokens(probe)
    next_id, ever_r2 = 0, False
    for op in ops:
        if op[0] == "add":
            document = doc(next_id, op[1])
            next_id += 1
            work = []
            for table in (lean, reference):
                if table.is_full:
                    evicted, *rest = table.replace(document, op[2])
                    work.append((evicted.doc_id, *rest))
                else:
                    work.append(table.admit(document, op[2]))
            assert work[0] == work[1]
        elif op[0] == "seed" and not lean.size:
            documents = [
                doc(next_id + i, ["abcd"[(next_id + i) % 4], "e"])
                for i in range(min(op[1], k))
            ]
            next_id += len(documents)
            trels = [0.125 * (i + 1) for i in range(len(documents))]
            assert lean.seed(documents, trels) == reference.seed(
                documents, trels
            )
        elif op[0] == "release":
            lean.release_budget()
            reference.release_budget()
        now = float(next_id)
        assert _read_back(lean, probe, now, decay) == _read_back(
            reference, probe, now, decay
        )
        if budgets[0] is not None:
            assert budgets[0].used == budgets[1].used
        ever_r2 = ever_r2 or lean._r2_count > 0
        if not lean.is_full:
            assert lean._sim is None and lean._flags is None
        elif ever_r2:
            assert len(lean._sim) == len(lean._flags) == lean.size - 1
        else:
            assert lean._sim is None and lean._flags is None


def _allocated_in(build, *modules):
    """Bytes ``build()`` leaves allocated from lines of ``modules``
    (documents and AW summaries, built elsewhere, do not count)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        kept = build()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    filters = [tracemalloc.Filter(True, module.__file__) for module in modules]
    stats = after.filter_traces(filters).compare_to(
        before.filter_traces(filters), "filename"
    )
    del kept
    return sum(stat.size_diff for stat in stats)


def test_a_table_allocates_only_what_its_filtering_reads():
    """tracemalloc bytes from ``result_set.py`` / the index modules, CPython
    3.11: a k = 20 warm-up table with 5 rows is 312 B (520 B when every
    table carried its ``Sim_acc`` and flag columns from the first row), a
    full k = 20 table under unlimited ``Φ_max`` after 25 replaces 784 B
    (1,140 B), and a term with one posting 248 B (328 B when each term's
    blocks sat in a postings-list object)."""
    import repro.core.blocks as blocks_module
    import repro.core.inverted_file as inverted_file_module
    import repro.core.result_set as result_set_module
    from repro.core.inverted_file import QueryInvertedFile
    from repro.core.query import DasQuery

    documents = [
        doc(i, [f"t{i % 7}", f"u{i % 5}", "w"]) for i in range(45)
    ]

    def warm_up():
        table = QueryResultSet(20)
        for document in documents[:5]:
            table.admit(document, 0.5)
        return table

    def full():
        table = QueryResultSet(20)
        for document in documents[:20]:
            table.admit(document, 0.5)
        for document in documents[20:]:
            table.replace(document, 0.25)
        return table

    def index_of(terms):
        def build():
            index = QueryInvertedFile(block_size=16)
            for query_id, term in enumerate(terms):
                index.insert(DasQuery(query_id, [term]))
            return index

        return build

    assert _allocated_in(warm_up, result_set_module) <= 416
    assert _allocated_in(full, result_set_module) <= 960
    index_modules = (inverted_file_module, blocks_module)
    one_term = _allocated_in(index_of(["seed"]), *index_modules)
    two_terms = _allocated_in(index_of(["seed", "solo"]), *index_modules)
    assert two_terms - one_term <= 288
