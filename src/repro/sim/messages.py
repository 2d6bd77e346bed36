"""Message envelopes exchanged between simulated processes.

Besides the :class:`Message` dataclass this module provides
:class:`MessagePool`, a free-list allocator behind the network's per-round
delivery queues: high-fan-out scenarios send hundreds of thousands of
short-lived envelopes, and recycling them removes the dominant allocation
cost from the publish hot loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.sim.slotted import set_slot_state

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
    message_id: int = field(default_factory=lambda: next(_MESSAGE_IDS))
    hops: int = 0

    #: Envelopes pickled before the class was slotted (the batched network's
    #: free list inside an old snapshot) carry an instance ``__dict__``.
    __setstate__ = set_slot_state

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


class MessagePool:
    """A free-list of reusable :class:`Message` envelopes.

    Ownership protocol: a producer :meth:`acquire`\\ s an envelope, hands it
    to the network, and the network :meth:`release`\\ s it once the recipient's
    handler has returned (or the message was dropped).  Handlers must not
    retain the envelope itself beyond the handling call; values *inside* the
    payload may be retained, because releasing only drops the envelope's
    reference to the payload dictionary — it never mutates it.

    ``allocated`` counts envelopes created fresh, ``reused`` the acquisitions
    served from the free list; their sum is the number of acquisitions.
    """

    def __init__(self) -> None:
        self._free: List[Message] = []
        self.allocated = 0
        self.reused = 0

    def acquire(
        self,
        sender: str,
        recipient: str,
        kind: str,
        payload: Dict[str, Any],
        hops: int = 0,
    ) -> Message:
        """Return a fully initialised envelope, recycling one if possible.

        Recycled envelopes get a fresh ``message_id`` so taps and logs never
        see two in-flight messages sharing an id.
        """
        if self._free:
            message = self._free.pop()
            message.sender = sender
            message.recipient = recipient
            message.kind = kind
            message.payload = payload
            message.sent_at = 0.0
            message.hops = hops
            message.message_id = next(_MESSAGE_IDS)
            self.reused += 1
            return message
        self.allocated += 1
        return Message(sender=sender, recipient=recipient, kind=kind,
                       payload=payload, hops=hops)

    def acquire_many(
        self,
        sender: str,
        recipients: List[str],
        kind: str,
        payload: Dict[str, Any],
        hops: int = 0,
    ) -> List[Message]:
        """One envelope per recipient, all sharing ``payload``.

        The bulk form of :meth:`acquire` used by
        :meth:`~repro.sim.network.Network.send_many`: the payload dictionary
        is shared across the whole batch (receivers treat it as read-only),
        so a hop's fan-out costs one payload and ``n`` recycled envelopes.
        """
        free = self._free
        out: List[Message] = []
        for recipient in recipients:
            if free:
                message = free.pop()
                message.sender = sender
                message.recipient = recipient
                message.kind = kind
                message.payload = payload
                message.sent_at = 0.0
                message.hops = hops
                message.message_id = next(_MESSAGE_IDS)
                self.reused += 1
            else:
                self.allocated += 1
                message = Message(sender=sender, recipient=recipient,
                                  kind=kind, payload=payload, hops=hops)
            out.append(message)
        return out

    def release(self, message: Message) -> None:
        """Return ``message`` to the pool.

        The payload reference is dropped (set to ``None``) so the pool keeps
        nothing alive; double releases are programming errors and raise.
        """
        if message.payload is None:
            raise ValueError(f"message #{message.message_id} released twice")
        message.payload = None
        self._free.append(message)

    def __len__(self) -> int:
        """Number of envelopes currently sitting in the free list."""
        return len(self._free)
