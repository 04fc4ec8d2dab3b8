"""In-process transport: the session protocol without a socket.

An :class:`InProcessClient` speaks the exact dict shapes of the NDJSON
protocol (see :mod:`repro.server.protocol`) directly against a
:class:`~repro.server.runtime.ServerRuntime` in the same event loop —
no serialisation, no TCP.  Tests and benchmarks use it to exercise the
full ingestion/delivery pipeline; anything validated here behaves
identically over the TCP transport, which shares the same dispatch
(`ServerRuntime.submit_request` then `complete_request`; the TCP
transport pipelines the two, this one runs them back to back through
`handle_request`) and session machinery.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.server.protocol import raise_for_reply
from repro.server.runtime import ServerRuntime
from repro.server.sessions import SubscriberSession


class InProcessClient:
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

    # -- ops --------------------------------------------------------------

    async def subscribe(
        self,
        keywords: Optional[Iterable[str]] = None,
        text: Optional[str] = None,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"op": "subscribe"}
        if keywords is not None:
            payload["keywords"] = list(keywords)
        if text is not None:
            payload["text"] = text
        return await self.request(payload)

    async def unsubscribe(self, query_id: int) -> Dict[str, Any]:
        return await self.request(
            {"op": "unsubscribe", "query_id": query_id}
        )

    async def publish(
        self,
        tokens: Optional[Sequence[str]] = None,
        text: Optional[str] = None,
        created_at: Optional[float] = None,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"op": "publish"}
        if tokens is not None:
            payload["tokens"] = list(tokens)
        if text is not None:
            payload["text"] = text
        if created_at is not None:
            payload["created_at"] = created_at
        return await self.request(payload)

    async def resume(
        self, subscriber: str, offset: Optional[int] = None
    ) -> Dict[str, Any]:
        """Attach the session to a durable subscriber (eventlog tier)."""
        payload: Dict[str, Any] = {"op": "resume", "subscriber": subscriber}
        if offset is not None:
            payload["offset"] = offset
        return await self.request(payload)

    async def ack(self, offset: int) -> Dict[str, Any]:
        """Confirm delivery up to the given event-log offset."""
        return await self.request({"op": "ack", "offset": int(offset)})

    async def dlq(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """Inspect the server's dead-letter queue."""
        payload: Dict[str, Any] = {"op": "dlq"}
        if limit is not None:
            payload["limit"] = limit
        return await self.request(payload)

    async def results(self, query_id: int) -> List[Dict[str, Any]]:
        reply = await self.request({"op": "results", "query_id": query_id})
        return reply["results"]

    async def stats(self) -> Dict[str, Any]:
        reply = await self.request({"op": "stats"})
        return reply["stats"]

    async def metrics(self) -> str:
        """Prometheus text exposition of the server's telemetry."""
        reply = await self.request({"op": "metrics"})
        return reply["metrics"]

    # -- delivery ---------------------------------------------------------

    async def next_message(
        self, timeout: Optional[float] = None
    ) -> Optional[Dict[str, Any]]:
        """Pull the next pushed message (notify/snapshot/closed).

        Returns None once the session is fully closed, or raises
        :class:`asyncio.TimeoutError` when ``timeout`` elapses.
        """
        if timeout is None:
            return await self.session.next_message()
        return await asyncio.wait_for(self.session.next_message(), timeout)

    async def close(self) -> None:
        await self._runtime.close_session(self.session)
