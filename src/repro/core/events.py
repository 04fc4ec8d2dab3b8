"""Engine output events."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.stream.document import Document


@dataclass(frozen=True)
class Notification:
    """A result-set change pushed to a subscriber.

    ``replaced`` is None during warm-up (the result set was still
    filling) and carries the evicted oldest document otherwise.

    Slotted by hand (``dataclass(slots=True)`` needs Python 3.10), so a
    notification held in a delivery list has no per-instance dict; the
    fields therefore take no defaults.  ``__reduce__`` rebuilds through
    ``__init__``: the default slot-state restore assigns attributes,
    which a frozen instance refuses, so ``pickle`` and ``copy`` would
    fail without it.
    """

    __slots__ = ("query_id", "document", "replaced")

    query_id: int
    document: Document
    replaced: Optional[Document]

    def __reduce__(self):
        return (Notification, (self.query_id, self.document, self.replaced))

    @property
    def is_replacement(self) -> bool:
        return self.replaced is not None
