"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random
import shutil
from typing import List, NamedTuple

import pytest

try:  # Optional: only the property suites need it.
    from hypothesis import HealthCheck, settings as _hyp_settings

    _hyp_settings.register_profile(
        "ci",
        max_examples=60,
        stateful_step_count=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    _hyp_settings.register_profile(
        "dev", max_examples=20, stateful_step_count=15, deadline=None
    )
    _hyp_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover - hypothesis not installed
    pass

from repro import (
    CollectionStatistics,
    DasEngine,
    DasQuery,
    Document,
    ExponentialDecay,
    LanguageModelScorer,
    SyntheticTweetCorpus,
    TermVector,
)


class Row(NamedTuple):
    """One result-table row, named: what ``QueryResultSet.rows()`` lists
    as a plain tuple."""

    document: Document
    trel: float
    sim_acc: float
    in_r1: bool
    aw_resident: bool


def table_rows(result_set) -> List[Row]:
    """``result_set.rows()`` with named fields, oldest first."""
    return [Row(*row) for row in result_set.rows()]


@pytest.fixture(scope="session")
def micro_figure(tmp_path_factory):
    """``run_figures([key], "micro", out_dir=...)`` once per key and
    session: returns the result objects and the file names written."""
    from repro.experiments.cli import run_figures

    runs = {}

    def run(key):
        if key not in runs:
            out = tmp_path_factory.mktemp(key)
            results = run_figures([key], "micro", out_dir=str(out))
            runs[key] = (results, sorted(os.listdir(out)))
        return runs[key]

    return run


@pytest.fixture
def rng():
    return random.Random(20150531)


@pytest.fixture
def small_corpus():
    """A tiny deterministic corpus for integration-style tests."""
    return SyntheticTweetCorpus(
        vocab_size=300, n_topics=10, doc_length=(4, 9), seed=11
    )


@pytest.fixture
def stats_with_docs():
    """Collection statistics over a handful of fixed documents."""
    stats = CollectionStatistics()
    for tokens in (
        ["coffee", "espresso", "milk"],
        ["coffee", "beans", "roast", "coffee"],
        ["tea", "green", "leaves"],
        ["espresso", "machine"],
    ):
        stats.add(TermVector.from_tokens(tokens))
    return stats


@pytest.fixture
def scorer(stats_with_docs):
    return LanguageModelScorer(stats_with_docs, smoothing_lambda=0.5)


@pytest.fixture
def decay():
    return ExponentialDecay(1.001)


def make_documents(token_lists, start_time=0.0, interval=1.0, first_id=0):
    """Helper: documents with sequential ids and regular timestamps."""
    return [
        Document.from_tokens(first_id + i, tokens, start_time + i * interval)
        for i, tokens in enumerate(token_lists)
    ]


@pytest.fixture
def make_docs():
    return make_documents


@pytest.fixture
def gifilter_engine():
    return DasEngine.for_method("GIFilter", k=3, block_size=4)


@pytest.fixture
def tmp_eventlog(tmp_path):
    """A fresh :class:`~repro.eventlog.EventLog` factory on tmp storage.

    Returns ``(directory, open_log)`` where ``open_log(**overrides)``
    opens (or re-opens — the crash/replay tests rely on it) the same
    directory; every log opened through it is closed at teardown.
    """
    from repro.eventlog import EventLog

    directory = str(tmp_path / "eventlog")
    os.makedirs(directory, exist_ok=True)
    opened = []

    def open_log(**overrides):
        options = dict(fsync="always", segment_entries=4)
        options.update(overrides)
        log = EventLog(directory, **options)
        opened.append(log)
        return log

    yield directory, open_log
    for log in opened:
        try:
            log.close()
        except Exception:
            pass


@pytest.fixture
def eventlog_corpus(tmp_path):
    """Copy of the golden segment corpus (recovery mutates in place).

    Returns a function mapping a variant name (``clean`` / ``torn_tail``
    / ``corrupt``) to a private writable copy of that directory.
    """
    source = os.path.join(
        os.path.dirname(__file__), "fixtures", "eventlog_corpus"
    )

    def variant(name):
        destination = str(tmp_path / f"corpus-{name}")
        shutil.copytree(os.path.join(source, name), destination)
        return destination

    return variant


@pytest.fixture
def queries_abc():
    return [
        DasQuery(0, ["coffee"]),
        DasQuery(1, ["coffee", "espresso"]),
        DasQuery(2, ["tea"]),
    ]
