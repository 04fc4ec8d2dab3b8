"""Tests for the query result table (Table 3) and its maintenance."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agg_weights import AggregatedTermWeights, MemoryBudget
from repro.core.result_set import QueryResultSet
from repro.scoring.recency import ExponentialDecay
from repro.stream.document import Document
from repro.text.vectors import TermVector, cosine_similarity


def doc(i, tokens):
    return Document.from_tokens(i, tokens, float(i))


def admit(rs, document, trel=0.1):
    rs.admit(document, trel)


def newer_sim_sum(rs, index=0):
    """Brute-force Eq. 24: entry ``index`` against every newer entry."""
    entries = rs.entries
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
    assert rs.oldest.document.doc_id == 0
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
    assert rs.entries[0].sim_acc == 0.0
    assert rs.admit(doc(1, ["a", "b"]), 0.1) == (0, 1)
    assert rs.aw_entry_count == 2
    assert rs.entries[0].sim_acc == pytest.approx(newer_sim_sum(rs), abs=1e-12)
    assert rs.entries[1].sim_acc == 0.0


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
    entries = rs.entries
    assert entries[0].sim_acc == pytest.approx(sim_ab + sim_ac)
    assert entries[1].sim_acc == 0.0  # c is AW-resident: owed, not paid
    assert entries[2].sim_acc == 0.0
    # Without a summary every arrival is paid pair by pair, as before.
    plain = QueryResultSet(k=3, track_aggregated_weights=False)
    for d in (a, b, c):
        admit(plain, d)
    assert plain.entries[0].sim_acc == pytest.approx(sim_ab + sim_ac)
    assert plain.entries[1].sim_acc == pytest.approx(
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
    assert rs.entries[0].sim_acc == pytest.approx(
        cosine_similarity(b.vector, c.vector)
        + cosine_similarity(b.vector, d.vector),
        abs=1e-12,
    )
    assert rs.entries[1].sim_acc == 0.0


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
    assert rs.entries[0].sim_acc == 0.0
    assert rs.aw_entry_count == 0


def test_dr_oldest_closed_form():
    rs = QueryResultSet(k=3)
    decay = ExponentialDecay(2.0)
    for i, tokens in enumerate((["x"], ["x", "y"], ["z"])):
        admit(rs, doc(i, tokens), trel=0.5)
    alpha = 0.4
    now = 2.0
    value = rs.dr_oldest(now, decay, alpha)
    entry = rs.oldest
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
    assert not any(e.in_r1 or e.aw_resident for e in rs.entries)
    admit(rs, doc(3, ["g"]))
    # The fill settles the rows in row order against the budget.
    entries = rs.entries
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
    assert not rs.entries[0].aw_resident


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
    assert rs.entries[0].sim_acc == pytest.approx(newer_sim_sum(rs), abs=1e-9)
    for index, entry in enumerate(plain.entries):
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
    assert table.kept_created == table.oldest.document.created_at


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
            assert all(e.sim_acc == 0.0 for e in rs.entries)
            continue
        if replacing:
            # R2 arrival: the per-entry path; R1: promotion pays instead.
            assert cosines == (0 if rs.entries[-1].aw_resident else k - 1)
        else:
            # The fill: each row left out of the summary pays its cosines
            # to the rows before it, the rest is one dot product.
            assert cosines == sum(
                index
                for index, e in enumerate(rs.entries)
                if index and not e.aw_resident
            )
        assert aw_dots <= 1
        head = rs.entries[0]
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
            for e in table.entries
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
        entries = table.entries
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
