"""Message envelopes exchanged between simulated processes.

Every envelope is a fresh slotted :class:`Message`; the network frees each
one as soon as its recipient has handled it, so nothing recycles them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict

_MESSAGE_IDS = itertools.count()


@dataclass(slots=True)
class Message:
    """A protocol message in flight.

    ``kind`` identifies the protocol message type (e.g. ``"JOIN"``,
    ``"CHECK_MBR"``); ``payload`` carries the message-specific fields as a
    dictionary so protocols stay declarative and easily loggable.
    """

    sender: str
    recipient: str
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)
    sent_at: float = 0.0
    message_id: int = field(default_factory=_MESSAGE_IDS.__next__)
    hops: int = 0

    def reply(self, kind: str, payload: Dict[str, Any] | None = None) -> "Message":
        """Build a response message addressed to this message's sender."""
        return Message(
            sender=self.recipient,
            recipient=self.sender,
            kind=kind,
            payload=dict(payload or {}),
            hops=self.hops + 1,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"Message(#{self.message_id} {self.kind} "
            f"{self.sender}->{self.recipient} {self.payload})"
        )
