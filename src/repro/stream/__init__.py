"""Stream substrate: documents, clock, store."""

from repro.stream.clock import SimulationClock
from repro.stream.document import Document
from repro.stream.document_store import DocumentStore

__all__ = [
    "Document",
    "DocumentStore",
    "SimulationClock",
]
