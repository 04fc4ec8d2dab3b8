"""Tests for checkpoint/restore: behavioural equivalence after a round trip."""

from __future__ import annotations

import pytest

from repro.core.engine import DasEngine
from repro.persistence import CHECKPOINT_VERSION, checkpoint, load, restore, save
from repro.workloads.corpus import SyntheticTweetCorpus
from repro.workloads.queries import lqd_queries
from tests.conftest import table_rows


def build_live_engine(method="GIFilter", n_docs=120):
    """An engine 90 documents into a stream, with the rest to come."""
    corpus = SyntheticTweetCorpus(vocab_size=150, n_topics=6, seed=12)
    engine = DasEngine.for_method(method, k=3, block_size=4)
    docs = corpus.documents(n_docs)
    for document in docs[:60]:
        engine.publish(document)
    for query in lqd_queries(corpus, 15, first_id=0):
        engine.subscribe(query)
    for document in docs[60:90]:
        engine.publish(document)
    return engine, corpus, docs


def build_warming_engine(method="GIFilter", **overrides):
    """A k = 4 engine 120 documents into a 320-document stream, some of
    its 30 queries still in warm-up; returns ``(engine, documents)``."""
    corpus = SyntheticTweetCorpus(vocab_size=150, n_topics=5, seed=23)
    docs = corpus.documents(320)
    engine = DasEngine.for_method(method, k=4, block_size=4, **overrides)
    for document in docs[:60]:
        engine.publish(document)
    for query in lqd_queries(corpus, 30, first_id=0):
        engine.subscribe(query)
    for document in docs[60:120]:
        engine.publish(document)
    return engine, docs


def change_log(notifications):
    return [
        (n.query_id, n.document.doc_id, n.replaced and n.replaced.doc_id)
        for n in notifications
    ]


def id_rows(result_set):
    return [
        (e.document.doc_id, e.trel, e.sim_acc, e.in_r1, e.aw_resident)
        for e in table_rows(result_set)
    ]


@pytest.fixture
def live_engine():
    return build_live_engine()


def test_checkpoint_is_json_safe(live_engine):
    import json

    engine, _corpus, _docs = live_engine
    payload = checkpoint(engine)
    text = json.dumps(payload)
    assert json.loads(text)["version"] == CHECKPOINT_VERSION


def test_restore_preserves_observable_state(live_engine):
    engine, _corpus, _docs = live_engine
    clone = restore(checkpoint(engine))
    assert clone.clock.now == engine.clock.now
    assert clone.query_count == engine.query_count
    assert clone.stats.total_tokens == engine.stats.total_tokens
    assert len(clone.store) == len(engine.store)
    for query_id in engine._queries:
        assert [d.doc_id for d in clone.results(query_id)] == [
            d.doc_id for d in engine.results(query_id)
        ]
        assert clone.current_dr(query_id) == pytest.approx(
            engine.current_dr(query_id)
        )


def test_restore_preserves_future_behaviour(live_engine):
    """The restored engine must make identical decisions from here on."""
    engine, _corpus, docs = live_engine
    clone = restore(checkpoint(engine))
    for document in docs[90:]:
        original_notes = engine.publish(document)
        clone_notes = clone.publish(document)
        assert [(n.query_id, n.document.doc_id) for n in original_notes] == [
            (n.query_id, n.document.doc_id) for n in clone_notes
        ]
    for query_id in engine._queries:
        assert [d.doc_id for d in clone.results(query_id)] == [
            d.doc_id for d in engine.results(query_id)
        ]


@pytest.mark.parametrize("method", ["GIFilter", "IFilter"])
def test_restore_continues_the_group_check_schedule(method):
    """The backoff pair rides in the checkpoint, so the restored engine
    checks the boundaries the uninterrupted one checks; a file without
    the key (written before the backoff existed) restores to "check the
    next boundary".  All three emit the same changes.  The check counts
    are compared for IFilter, whose verdicts read checkpointed state
    only; GIFilter's also depend on how many MCS covers survived, and a
    restore rebuilds them."""
    engine, _corpus, docs = build_live_engine(method, n_docs=160)
    payload = checkpoint(engine)
    assert payload["check_backoff"] == [
        engine._check_backoff, engine._check_sitout
    ]
    assert engine._check_sitout > 0
    clone = restore(payload)
    del payload["check_backoff"]
    legacy = restore(payload)
    assert (legacy._check_backoff, legacy._check_sitout) == (0, 0)

    def changes(notifications):
        return sorted((n.query_id, n.document.doc_id) for n in notifications)

    for document in docs[90:]:
        expected = changes(engine.publish(document))
        assert changes(clone.publish(document)) == expected
        assert changes(legacy.publish(document)) == expected
    if method == "IFilter":
        for name in ("group_checks", "group_checks_deferred"):
            assert getattr(clone.counters, name) == getattr(
                engine.counters, name
            )
        assert legacy.counters.group_checks != engine.counters.group_checks


def test_restore_preserves_subscription_order_constraint(live_engine):
    engine, corpus, _docs = live_engine
    clone = restore(checkpoint(engine))
    # New subscriptions still work and must carry larger ids.
    new_query = lqd_queries(corpus, 1, first_id=10_000)[0]
    clone.subscribe(new_query)
    assert clone.query_count == engine.query_count + 1


def test_save_load_file_roundtrip(live_engine, tmp_path):
    engine, _corpus, _docs = live_engine
    path = tmp_path / "engine.json"
    save(engine, str(path))
    clone = load(str(path))
    for query_id in engine._queries:
        assert [d.doc_id for d in clone.results(query_id)] == [
            d.doc_id for d in engine.results(query_id)
        ]


def test_save_fsyncs_the_file_before_replacing(live_engine, tmp_path, monkeypatch):
    """The whole payload is flushed and fsynced before it takes the
    checkpoint's name, so a crash right after the rename cannot leave an
    empty or partial checkpoint at ``path``; the directory is fsynced
    after the rename, so the new name survives the crash too."""
    import os
    import stat

    engine, _corpus, _docs = live_engine
    path = str(tmp_path / "engine.json")
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        status = os.fstat(fd)
        if stat.S_ISDIR(status.st_mode):
            events.append(("dir-fsync", status.st_ino))
        else:
            events.append(("fsync", status.st_size))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", src, dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    save(engine, path)
    assert events == [
        ("fsync", os.path.getsize(path)),
        ("replace", path + ".tmp", path),
        ("dir-fsync", os.stat(tmp_path).st_ino),
    ]


def test_restore_rejects_bad_version():
    with pytest.raises(ValueError):
        restore({"version": 999})


def test_restore_rejects_missing_document(live_engine):
    engine, _corpus, _docs = live_engine
    payload = checkpoint(engine)
    payload["documents"] = payload["documents"][:1]
    if payload["queries"] and payload["queries"][0]["results"]:
        with pytest.raises(ValueError):
            restore(payload)


def test_budget_accounting_restored():
    corpus = SyntheticTweetCorpus(vocab_size=100, n_topics=4, seed=8)
    engine = DasEngine.for_method("GIFilter", k=3, phi_max=40)
    for document in corpus.documents(60):
        engine.publish(document)
    for query in lqd_queries(corpus, 8, first_id=0):
        engine.subscribe(query)
    clone = restore(checkpoint(engine))
    assert clone._budget.used == engine._budget.used


def _as_parent_commit_payload(payload):
    """Rewrite a checkpoint into the shape written before Eq. 24 was
    completed at promotion: every row carries its full per-entry total
    ``Σ cosine(entry, newer entry)``, not only the oldest row."""
    import copy

    from repro.text.vectors import TermVector, cosine_similarity

    payload = copy.deepcopy(payload)
    vectors = {
        record["id"]: TermVector(record["tf"])
        for record in payload["documents"]
    }
    for query in payload["queries"]:
        rows = query["results"]
        for index, row in enumerate(rows):
            row["sim_acc"] = sum(
                cosine_similarity(vectors[row["doc"]], vectors[newer["doc"]])
                for newer in rows[index + 1 :]
            )
    return payload


@pytest.mark.parametrize(
    "method, overrides, shapes_differ",
    [("GIFilter", {"phi_max": 60}, True), ("BIRT", {}, False)],
    ids=["tight-phi-max", "birt"],
)
def test_parent_commit_checkpoint_restores_and_continues(
    method, overrides, shapes_differ
):
    """A file with per-entry ``sim_acc`` totals (the parent commit's) and
    one written now describe the same state: both restore, and both
    continue with the live engine's exact change stream.  Under a tight
    ``Φ_max`` R1 and R2 rows mix, so the two files differ behind the
    oldest row; without a summary every arrival is paid pair by pair
    and they coincide."""
    live, docs = build_warming_engine(method, **overrides)
    assert sum(rs._r2_count for rs in live._result_sets.values()) > 0

    new_shaped = checkpoint(live)
    parent_shaped = _as_parent_commit_payload(new_shaped)
    # Full tables only: a warm-up table's rows carry nothing now (the
    # parent's carry running totals, which the restore ignores).
    warming = [q for q in new_shaped["queries"] if len(q["results"]) < 4]
    assert warming and all(
        (row["sim_acc"], row["in_r1"]) == (0.0, False)
        for query in warming
        for row in query["results"]
    )
    assert shapes_differ == any(
        old["sim_acc"] != pytest.approx(new["sim_acc"], abs=1e-9)
        for old_q, new_q in zip(parent_shaped["queries"], new_shaped["queries"])
        if len(new_q["results"]) == 4
        for old, new in zip(old_q["results"][1:], new_q["results"][1:])
    )
    from_new, from_parent = restore(new_shaped), restore(parent_shaped)
    log = change_log

    def head_sim_acc(engine, query_id):
        return table_rows(engine._result_sets[query_id])[0].sim_acc

    replaced = 0
    for document in docs[120:]:
        expected = log(live.publish(document))
        assert log(from_new.publish(document)) == expected
        assert log(from_parent.publish(document)) == expected
        # Every promotion is audited the moment it happens: a restored
        # row that kept its file total would be counted twice here.
        for query_id, _doc_id, old_id in expected:
            replaced += old_id is not None
            for clone in (from_new, from_parent):
                assert head_sim_acc(clone, query_id) == pytest.approx(
                    head_sim_acc(live, query_id), abs=1e-9
                )
    assert replaced > 0


def _fixture_payload(name):
    import json
    import os

    path = os.path.join(os.path.dirname(__file__), "fixtures", name)
    with open(path) as handle:
        return json.load(handle)


def _restores_and_continues(payload, live, documents):
    """Restore ``payload``, a parent-commit file of ``live``'s history,
    and run both over ``documents``: no key missing or left over, the
    oldest row of every full table as the live engine has it, the same
    change stream, and — for a table that was in warm-up in the file and
    filled since — the same completed head value."""
    # Files from before ``last_query_id`` was written lack only that key.
    assert sorted(payload) == sorted(set(checkpoint(live)) - {"last_query_id"})
    clone = restore(payload)
    warming = {
        query_id
        for query_id, result_set in clone._result_sets.items()
        if not result_set.is_full
    }
    for query_id, result_set in live._result_sets.items():
        restored = clone._result_sets[query_id]
        if query_id in warming:
            # Rows only, whatever the file says about them.
            assert restored.aggregated_weights is None
            assert id_rows(restored) == id_rows(result_set)
        else:
            assert table_rows(restored)[0].sim_acc == pytest.approx(
                table_rows(result_set)[0].sim_acc, abs=1e-9
            )
    replaced = 0
    for document in documents:
        expected = change_log(live.publish(document))
        assert change_log(clone.publish(document)) == expected
        replaced += sum(old is not None for _q, _d, old in expected)
    assert replaced > 0
    for query_id in live._queries:
        assert clone.current_dr(query_id) == pytest.approx(
            live.current_dr(query_id)
        )
    filled = [q for q in warming if clone._result_sets[q].is_full]
    for query_id in filled:
        head = table_rows(clone._result_sets[query_id])[0]
        assert head.sim_acc == pytest.approx(
            table_rows(live._result_sets[query_id])[0].sim_acc, abs=1e-9
        )
    return warming, filled


def test_file_written_by_parent_commit_restores_and_continues():
    """``fixtures/checkpoint_parent_1b475d8.json`` was written by the
    commit before seeding moved to one Lemma 6 dot (and while the engine
    still kept its columnar/flat mirrors — derived state, never in the
    payload): it is :func:`build_live_engine` 90 documents in.  It loads
    with no key missing or left over, and continues on the change stream
    of an engine that lived the same history under this commit."""
    live, _corpus, docs = build_live_engine()
    _restores_and_continues(
        _fixture_payload("checkpoint_parent_1b475d8.json"), live, docs[90:]
    )


@pytest.mark.parametrize("shape", ["single", "sharded"])
def test_restore_remembers_an_unsubscribed_newest_query_id(shape):
    """Subscribe 0, 1, 2 and unsubscribe 2: the live engine rejects id 2
    from then on, and so does one restored from a checkpoint taken now,
    in the single-engine schema or the older sharded one — while a file
    without ``last_query_id`` falls back to the newest live id, as files
    written before the key did."""
    from repro.core.query import DasQuery
    from repro.errors import QueryOrderError
    from tests.test_sharded_checkpoint import sharded_schema

    def build():
        engine = DasEngine.for_method("GIFilter", k=3, block_size=4)
        for query_id in range(3):
            engine.subscribe(DasQuery(query_id, ["w"]))
        engine.unsubscribe(2)
        return engine

    def accepts(engine, query_id):
        try:
            engine.subscribe(DasQuery(query_id, ["w"]))
        except QueryOrderError:
            return False
        return True

    payload = checkpoint(build())
    if shape == "sharded":
        payload = sharded_schema(payload)
    assert payload["last_query_id"] == 2
    assert accepts(build(), 2) is False
    assert accepts(restore(payload), 2) is False
    assert accepts(restore(payload), 3) is True
    del payload["last_query_id"]
    assert accepts(restore(payload), 2) is True


@pytest.mark.parametrize("backend", ["auto", "python", "numpy"])
def test_file_naming_a_kernel_backend_restores(live_engine, backend):
    """Files written while the engine had kernel backends carry the
    config key ``"backend"``.  Whatever it names, the file restores to
    the engine it describes, and a checkpoint written now has no key."""
    engine, _corpus, docs = live_engine
    payload = checkpoint(engine)
    assert "backend" not in payload["config"]
    payload["config"]["backend"] = backend
    clone = restore(payload)
    assert checkpoint(clone)["config"] == checkpoint(engine)["config"]
    for document in docs[90:]:
        assert change_log(clone.publish(document)) == change_log(
            engine.publish(document)
        )


@pytest.mark.parametrize("bound", ["strict", "paper"])
def test_file_naming_a_group_bound_mode_restores(live_engine, bound):
    """Files written while the engine had two group bounds carry the
    config key ``"group_bound_mode"``.  Whatever it names, the file
    restores under the one exact bound — a ``"paper"`` file too, because
    a skip is optional — continues on the change stream of the engine it
    describes, and a checkpoint written now has no key."""
    engine, _corpus, docs = live_engine
    payload = checkpoint(engine)
    assert "group_bound_mode" not in payload["config"]
    payload["config"]["group_bound_mode"] = bound
    clone = restore(payload)
    assert checkpoint(clone)["config"] == checkpoint(engine)["config"]

    def changes(notifications):
        return sorted(change_log(notifications), key=lambda change: change[:2])

    for document in docs[90:]:
        assert changes(clone.publish(document)) == changes(
            engine.publish(document)
        )


def test_file_bounding_the_document_store_restores(tmp_path):
    """Files written while the document store could evict carry the
    config key ``"store_capacity"``.  The store keeps every document
    now, so a file naming fewer documents than its result rows reference
    restores — through ``restore`` and through the event log's
    ``recover`` — to the result sets of the engine it describes."""
    import os

    from repro.core.query import DasQuery
    from repro.eventlog import SubscriberRegistry, recover
    from repro.eventlog.recovery import write_checkpoint
    from repro.stream.document import Document

    engine = DasEngine.for_method("GIFilter", k=3)
    for query_id, terms in enumerate([["coffee"], ["tea"], ["coffee", "tea"]]):
        engine.subscribe(DasQuery(query_id, terms))
    for doc_id in range(10):
        term = "coffee" if doc_id % 2 else "tea"
        engine.publish(
            Document.from_tokens(doc_id, [term, f"w{doc_id}"], float(doc_id))
        )
    payload = checkpoint(engine)
    assert "store_capacity" not in payload["config"]
    payload["config"]["store_capacity"] = 4

    def results(restored):
        return {
            query_id: [d.doc_id for d in restored.results(query_id)]
            for query_id in range(3)
        }

    expected = results(engine)
    assert len({doc_id for ids in expected.values() for doc_id in ids}) > 4
    assert results(restore(payload)) == expected

    directory = str(tmp_path / "log")
    os.makedirs(directory)
    write_checkpoint(
        directory, 0, payload, SubscriberRegistry().snapshot(), fsync="never"
    )
    state = recover(directory, DasEngine.for_method("GIFilter", k=3))
    assert state.checkpoint_offset == 0
    assert state.replay_errors == []
    assert results(state.engine) == expected
    state.log.close()


def test_tight_phi_max_file_written_by_parent_commit_restores_and_continues():
    """``fixtures/checkpoint_parent_fd88421_tight_phi_max.json`` was
    written by the last commit that summarised warm-up tables: it is
    ``build_warming_engine(phi_max=500)``, whose warm-up rows carry
    ``in_r1: true``, running ``sim_acc`` totals and a share of ``Φ_max``
    there.  Here those rows restore as rows, the budget they held goes
    unreserved, and the stream continues as for an engine that lived the
    same history under this commit — through the fill of such a table."""
    payload = _fixture_payload("checkpoint_parent_fd88421_tight_phi_max.json")
    assert any(
        row["in_r1"]
        for query in payload["queries"]
        if len(query["results"]) < 4
        for row in query["results"]
    )
    live, docs = build_warming_engine(phi_max=500)
    warming, filled = _restores_and_continues(payload, live, docs[120:])
    assert warming and filled


@pytest.mark.parametrize(
    "method, overrides",
    [("GIFilter", {}), ("GIFilter", {"phi_max": 500}), ("BIRT", {})],
    ids=["unlimited", "tight-phi-max", "birt"],
)
def test_round_trip_keeps_warm_up_tables_as_rows(method, overrides):
    """``restore(checkpoint(e))``: a warm-up table comes back as its rows
    and nothing else, a full one with the live engine's very oldest-row
    ``sim_acc``, the shared budget as the live engine holds it; and a
    warm-up table restored and then filled gets the head value of the
    one that never left memory.  A full table's kept thresholds come back
    equal (``==``) to the reference forms and to the live table's."""
    live, docs = build_warming_engine(method, **overrides)
    clone = restore(checkpoint(live))
    now, decay, alpha = clone.clock.now, clone.decay, clone.config.alpha
    warming = []
    for query_id, result_set in live._result_sets.items():
        restored = clone._result_sets[query_id]
        kept = (restored.kept_rel, restored.kept_div, restored.kept_created)
        if result_set.is_full:
            head = table_rows(restored)[0]
            assert head.sim_acc == table_rows(result_set)[0].sim_acc
            recency = decay.at(restored.kept_created, now)
            assert restored.kept_rel * recency + restored.kept_div == (
                restored.dr_oldest(now, decay, alpha)
            )
            assert restored.kept_rel + restored.kept_div == (
                restored.static_dr_oldest(alpha)
            )
            assert kept == (
                result_set.kept_rel, result_set.kept_div,
                result_set.kept_created,
            )
            assert [e.aw_resident for e in table_rows(restored)] == [
                e.aw_resident for e in table_rows(result_set)
            ]
        else:
            warming.append(query_id)
            assert kept == (None, None, None)
            assert restored.aggregated_weights is None
            assert restored.aw_entry_count == restored._r2_count == 0
            assert id_rows(restored) == [
                (e.document.doc_id, e.trel, 0.0, False, False)
                for e in table_rows(result_set)
            ]
    assert warming
    if live._budget is not None:
        assert clone._budget.used == live._budget.used
    filled = 0
    for document in docs[120:]:
        expected = change_log(live.publish(document))
        assert change_log(clone.publish(document)) == expected
        for query_id, _doc_id, old_id in expected:
            if query_id in warming and old_id is None:
                mine = clone._result_sets[query_id]
                theirs = live._result_sets[query_id]
                if theirs.is_full:
                    filled += 1
                    assert id_rows(mine) == id_rows(theirs)
                    assert mine._r2_count == theirs._r2_count
    assert filled > 0


@pytest.mark.parametrize(
    "method, overrides",
    [("GIFilter", {}), ("GIFilter", {"phi_max": 12}), ("BIRT", {})],
    ids=["unlimited", "tight-phi-max", "birt"],
)
def test_restore_right_after_subscribe_keeps_seeded_sim_acc(method, overrides):
    """Rows seeded at subscription (oldest row completed by one Lemma 6
    dot) checkpoint and restore to the live engine's very values."""
    corpus = SyntheticTweetCorpus(vocab_size=150, n_topics=5, seed=23)
    live = DasEngine.for_method(method, k=4, block_size=4, **overrides)
    for document in corpus.documents(60):
        live.publish(document)
    for query in lqd_queries(corpus, 30, first_id=0):
        live.subscribe(query)
    clone = restore(checkpoint(live))
    seeded = 0
    for query_id, result_set in live._result_sets.items():
        restored = clone._result_sets[query_id]
        assert [e.aw_resident for e in table_rows(restored)] == [
            e.aw_resident for e in table_rows(result_set)
        ]
        for index, (mine, theirs) in enumerate(
            zip(table_rows(restored), table_rows(result_set))
        ):
            if index == 0:
                assert mine.sim_acc == theirs.sim_acc
            else:
                assert mine.sim_acc == pytest.approx(theirs.sim_acc, abs=1e-12)
        seeded += result_set.size > 1
    assert seeded > 0
