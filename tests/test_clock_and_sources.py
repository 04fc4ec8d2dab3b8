"""Tests for the simulation clock and documents."""

from __future__ import annotations

import pytest

from repro.stream.clock import SimulationClock


def test_clock_starts_at_zero():
    assert SimulationClock().now == 0.0


def test_clock_advance():
    clock = SimulationClock(10.0)
    assert clock.advance(5.0) == 15.0
    assert clock.now == 15.0


def test_clock_rejects_negative_advance():
    with pytest.raises(ValueError):
        SimulationClock().advance(-1.0)


def test_clock_advance_to():
    clock = SimulationClock()
    clock.advance_to(7.5)
    assert clock.now == 7.5
    clock.advance_to(7.5)  # same time allowed
    with pytest.raises(ValueError):
        clock.advance_to(7.0)


def test_document_ordering_and_equality():
    from repro.stream.document import Document

    a = Document.from_tokens(1, ["x"], 0.0)
    b = Document.from_tokens(2, ["x"], 1.0)
    a_again = Document.from_tokens(1, ["y"], 5.0)
    assert a < b
    assert a == a_again  # identity is the id
    assert hash(a) == hash(a_again)
    assert "id=1" in repr(a)
