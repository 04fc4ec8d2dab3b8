"""Async serving runtime: ingestion pipeline, delivery, transports.

The subsystem that turns the engine into a long-running network
service (see DESIGN.md §8):

* :class:`ServerRuntime` — bounded ingestion queue + single matcher task
  draining what is queued into micro-batches (group commit);
* :class:`SubscriberSession` — bounded per-subscriber delivery with
  ``block`` / ``drop_oldest`` / ``coalesce`` / ``disconnect`` policies;
* :class:`InProcessClient` — the session protocol without a socket;
* :class:`NdjsonTcpServer` / :class:`NdjsonTcpClient` — the same
  protocol as newline-delimited JSON over TCP, each connection a
  pipeline (requests may be sent without awaiting replies).
"""

from repro.server.inprocess import InProcessClient
from repro.server.runtime import ServerRuntime
from repro.server.sessions import SubscriberSession
from repro.server.tcp import NdjsonTcpClient, NdjsonTcpServer

__all__ = [
    "InProcessClient",
    "NdjsonTcpClient",
    "NdjsonTcpServer",
    "ServerRuntime",
    "SubscriberSession",
]
