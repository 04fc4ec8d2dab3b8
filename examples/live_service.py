#!/usr/bin/env python
"""Live service: pushed and pulled delivery from one runtime.

One :class:`ServerRuntime` is the channel; every subscriber is an
:class:`InProcessClient` with its own session.  The publisher publishes
once and the runtime fans each result change out to the session that
owns the query.  The coffee subscriber's pushes are pulled as they
arrive; the storm subscriber is a ``drop_oldest`` session of capacity 16
whose queue is drained later; an unsubscribed query stops receiving.

Exits 1 unless the coffee session got 1 push, the storm queue drained
the two storm documents in order, and no push arrived after the
unsubscribe.

Run:  python examples/live_service.py
"""

from __future__ import annotations

import asyncio
import sys
from typing import Dict, List

from repro import DasEngine, InProcessClient, ServerRuntime


async def delivery_demo() -> int:
    print("== delivery layer ==")
    runtime = ServerRuntime(DasEngine.for_method("GIFilter", k=3))
    await runtime.start()
    publisher = InProcessClient(runtime)
    coffee = InProcessClient(runtime)
    storms = InProcessClient(runtime, policy="drop_oldest", capacity=16)

    coffee_id = (await coffee.subscribe(text="coffee espresso"))["query_id"]
    await storms.subscribe(text="storm warning")

    alerts: List[Dict] = []

    async def listen() -> None:
        while (message := await coffee.next_message()) is not None:
            if message["op"] == "notify":
                alerts.append(message)

    listener = asyncio.create_task(listen())

    await publisher.publish(
        text="storm warning for the northern coast", created_at=1.0
    )
    await publisher.publish(
        text="new espresso blend at the corner cafe", created_at=2.0
    )
    await publisher.publish(
        text="storm passes, cleanup begins downtown", created_at=3.0
    )
    await coffee.session.drain(timeout=5.0)
    pushes = len(alerts)
    print(f"  coffee session received {pushes} push(es)")

    pending = [
        await storms.next_message() for _ in range(storms.session.depth)
    ]
    drained = [message["document"]["text"] for message in pending]
    print(f"  storm queue drained {len(drained)} notification(s):")
    for text in drained:
        print(f"    - {text}")

    await coffee.unsubscribe(coffee_id)
    await publisher.publish(
        text="espresso again, but nobody is listening", created_at=4.0
    )
    await coffee.session.drain(timeout=5.0)
    late = len(alerts) - pushes
    print(f"  after unsubscribe: {late} more push(es)")

    await coffee.close()
    await listener
    await runtime.stop()

    expected_storms = [
        "storm warning for the northern coast",
        "storm passes, cleanup begins downtown",
    ]
    return 0 if (pushes, drained, late) == (1, expected_storms, 0) else 1


def main() -> int:
    return asyncio.run(delivery_demo())


if __name__ == "__main__":
    sys.exit(main())
