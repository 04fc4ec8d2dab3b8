#!/usr/bin/env python
"""Live service: callback and mailbox delivery.

Wraps the engine in :class:`PublishSubscribeService`: one subscription
is pushed its notifications through a callback, another collects them
in a pull mailbox, and a cancelled subscription stops receiving.

Run:  python examples/live_service.py
"""

from __future__ import annotations

from repro import DasEngine, PublishSubscribeService


def delivery_demo() -> None:
    print("== delivery layer ==")
    service = PublishSubscribeService(DasEngine.for_method("GIFilter", k=3))

    alerts = []
    coffee = service.subscribe(
        "coffee espresso", callback=lambda note: alerts.append(note)
    )
    storms = service.subscribe("storm warning", mailbox_capacity=16)

    service.publish_text("storm warning for the northern coast", created_at=1.0)
    service.publish_text("new espresso blend at the corner cafe", created_at=2.0)
    service.publish_text("storm passes, cleanup begins downtown", created_at=3.0)

    print(f"  coffee callback received {len(alerts)} push(es)")
    pending = storms.mailbox.drain()
    print(f"  storm mailbox drained {len(pending)} notification(s):")
    for note in pending:
        print(f"    - {note.document.text}")
    coffee.cancel()
    service.publish_text("espresso again, but nobody is listening", created_at=4.0)
    print(f"  after cancel: still {len(alerts)} push(es)")


def main() -> None:
    delivery_demo()


if __name__ == "__main__":
    main()
