"""Tests for the engine's output event, :class:`Notification`."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.core.events import Notification
from repro.stream.document import Document


def _notifications():
    first = Document.from_tokens(1, ["coffee", "beans"], 1.0)
    second = Document.from_tokens(2, ["coffee"], 2.0)
    return [Notification(3, first, None), Notification(3, second, first)]


def test_notification_is_slotted():
    for notification in _notifications():
        assert not hasattr(notification, "__dict__")
    assert Notification.__slots__ == ("query_id", "document", "replaced")


def test_notification_is_frozen():
    notification = _notifications()[1]
    for name in ("query_id", "document", "replaced"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(notification, name, None)
    with pytest.raises((dataclasses.FrozenInstanceError, AttributeError)):
        notification.other = 1
    assert notification.query_id == 3


def test_notification_fields_equality_hash_and_repr():
    warm, replacement = _notifications()
    assert [f.name for f in dataclasses.fields(Notification)] == [
        "query_id",
        "document",
        "replaced",
    ]
    assert not warm.is_replacement and replacement.is_replacement
    again = Notification(3, warm.document, None)
    assert again == warm and hash(again) == hash(warm)
    assert warm != replacement
    assert repr(warm) == (
        f"Notification(query_id=3, document={warm.document!r}, replaced=None)"
    )
    with pytest.raises(TypeError):
        Notification(3, warm.document)  # ``replaced`` has no default


@pytest.mark.parametrize(
    "round_trip",
    [
        lambda n: pickle.loads(pickle.dumps(n)),
        copy.copy,
        copy.deepcopy,
    ],
    ids=["pickle", "copy", "deepcopy"],
)
def test_notification_round_trips(round_trip):
    for notification in _notifications():
        back = round_trip(notification)
        assert type(back) is Notification
        assert back == notification and hash(back) == hash(notification)
        assert back.document.doc_id == notification.document.doc_id
        assert (back.replaced is None) == (notification.replaced is None)
