"""Exception hierarchy for the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting genuine programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration value is out of range or inconsistent."""


class DuplicateQueryError(ReproError):
    """A query with the same id is already registered with the engine."""


class UnknownQueryError(ReproError):
    """The referenced query id is not registered with the engine."""


class QueryOrderError(ReproError):
    """Subscription ids must be strictly increasing.

    The query inverted file keeps postings sorted by query id and only
    ever appends (Section 4.3), so new subscriptions must carry a larger
    id than every existing one.
    """


class DuplicateDocumentError(ReproError):
    """A document with the same id was already published."""


class DocumentOrderError(ReproError):
    """A published document violates the stream's monotonic order.

    Document ids are assigned by creation time (Definition 1), so both the
    id and the creation timestamp of each published document must be
    non-decreasing.
    """


class EmptyQueryError(ReproError):
    """A subscription was submitted without any keywords."""


class ProtocolError(ReproError):
    """A transport request is malformed (bad JSON, unknown op, bad field)."""


class InjectedFaultError(ReproError):
    """A deterministic fault fired by the simulation harness.

    Raised at the injection points of :mod:`repro.simulation.faults`;
    production code treats it like any other :class:`ReproError` (the
    point of the harness is that nothing special-cases it).
    """


class ServerClosedError(ReproError):
    """The serving runtime is draining or stopped and rejects new work."""

