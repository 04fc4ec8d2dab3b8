"""In-process transport: the session protocol without a socket.

An :class:`InProcessClient` speaks the exact dict shapes of the NDJSON
protocol (see :mod:`repro.server.protocol`) directly against a
:class:`~repro.server.runtime.ServerRuntime` in the same event loop —
no serialisation, no TCP.  Tests and examples use it to exercise the
full ingestion/delivery pipeline.  Its op methods are
:class:`~repro.server.protocol.ProtocolClient`'s, the ones the TCP
client inherits too, and its requests enter the runtime the one way
every request does (`ServerRuntime.handle_request`, i.e.
`submit_request` then `complete_request`; the TCP transport pipelines
the two halves), so what is validated here behaves identically over TCP.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional

from repro.server.protocol import ProtocolClient, raise_for_reply
from repro.server.runtime import ServerRuntime
from repro.server.sessions import SubscriberSession


class InProcessClient(ProtocolClient):
    """Client handle bound to one subscriber session of a runtime."""

    def __init__(
        self,
        runtime: ServerRuntime,
        policy: Optional[str] = None,
        capacity: Optional[int] = None,
    ) -> None:
        self._runtime = runtime
        self.session: SubscriberSession = runtime.open_session(
            policy=policy, capacity=capacity
        )

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one protocol request; returns the successful reply or
        raises the reply's structured :mod:`repro.errors` error."""
        reply = await self._runtime.handle_request(self.session, payload)
        return raise_for_reply(reply)

    async def next_message(
        self, timeout: Optional[float] = None
    ) -> Optional[Dict[str, Any]]:
        """Pull the next pushed message (notify/snapshot/closed).

        Returns None once the session is fully closed, or raises
        :class:`asyncio.TimeoutError` when ``timeout`` elapses.
        """
        message = await asyncio.wait_for(self.session.next_message(), timeout)
        if message is not None:
            self._saw(message)
        return message

    async def close(self) -> None:
        await self._runtime.close_session(self.session)
