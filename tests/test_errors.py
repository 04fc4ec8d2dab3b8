"""Tests for the exception hierarchy."""

from __future__ import annotations

import pytest

from repro import errors


def test_all_errors_derive_from_repro_error():
    for name in (
        "ConfigurationError",
        "DuplicateQueryError",
        "UnknownQueryError",
        "QueryOrderError",
        "DuplicateDocumentError",
        "DocumentOrderError",
        "EmptyQueryError",
    ):
        exc_type = getattr(errors, name)
        assert issubclass(exc_type, errors.ReproError)
        assert issubclass(exc_type, Exception)


def test_single_except_clause_catches_everything():
    with pytest.raises(errors.ReproError):
        raise errors.DocumentOrderError("out of order")


def test_messages_preserved():
    err = errors.UnknownQueryError("query 7 is not subscribed")
    assert "query 7" in str(err)
