"""Frame codec of the real-network backend.

The wire format is :mod:`repro.wire`'s — the 12-byte ``<III`` header
(magic "DRTR" | payload length | CRC-32) the shared-memory shard transport
speaks too — carrying one pickled :class:`~repro.sim.messages.Message`
envelope per frame.  A torn stream (bad magic, implausible length, CRC
mismatch) or a payload that is not a ``Message`` raises a typed
:class:`~repro.net.faults.NetProtocolError`; the codec never
resynchronizes silently.

The bytes come off a socket, and a pickle that may name any global may run
any code, so payloads are read with an ``Unpickler`` that admits only the
globals in :data:`ALLOWED` — the envelope and the event and point a
publication carries, all the protocol ever sends.  A frame naming anything
else raises :class:`~repro.net.faults.NetProtocolError` before that global
is looked up.

:class:`FrameDecoder` is incremental: feed it whatever chunk the socket
produced and it yields every complete message parsed out of its pending
buffer, keeping the remainder for the next chunk.  This is what the
tamper-detection property tests drive byte by byte.
"""

from __future__ import annotations

import io
import pickle
from typing import Any, List

from repro.net.faults import NetProtocolError
from repro.sim.messages import Message
from repro.wire import FrameSplitter, frame

#: Every global a frame may name.
ALLOWED = frozenset({
    ("repro.sim.messages", "Message"),
    ("repro.spatial.filters", "Event"),
    ("repro.spatial.rectangle", "Point"),
})


class _Reader(pickle.Unpickler):
    """Admits the :data:`ALLOWED` globals and nothing else."""

    def find_class(self, module: str, name: str) -> Any:
        if (module, name) not in ALLOWED:
            raise pickle.UnpicklingError(
                f"frame names {module}.{name}, which the protocol never "
                "sends")
        return super().find_class(module, name)


def encode_frame(message: Message) -> bytes:
    """Serialize one message envelope into a framed byte string."""
    return frame(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))


class FrameDecoder:
    """Incremental message decoder over an unbounded byte stream."""

    def __init__(self) -> None:
        self._splitter = FrameSplitter(NetProtocolError)

    def pending(self) -> int:
        """Bytes buffered but not yet parsed into a complete frame."""
        return self._splitter.pending()

    def feed(self, chunk: bytes) -> List[Message]:
        """Absorb ``chunk`` and return every message it completed.

        Raises :class:`NetProtocolError` on a torn stream (bad magic,
        implausible length, CRC mismatch, or an unpicklable / non-Message
        payload, or one naming a global outside :data:`ALLOWED`); the
        caller must drop the connection.
        """
        messages: List[Message] = []
        for payload in self._splitter.feed(chunk):
            try:
                message = _Reader(io.BytesIO(payload)).load()
            except Exception as exc:  # noqa: BLE001 - any unpickle failure
                raise NetProtocolError(
                    f"frame payload does not deserialize: {exc!r}") from exc
            if not isinstance(message, Message):
                raise NetProtocolError(
                    f"frame payload is {type(message).__name__}, "
                    "expected Message")
            messages.append(message)
        return messages


def decode_frames(data: bytes) -> List[Message]:
    """Parse a complete byte string of back-to-back frames.

    Raises :class:`NetProtocolError` if bytes are left over — a truncated
    trailing frame is a torn stream for a *complete* input.
    """
    decoder = FrameDecoder()
    messages = decoder.feed(data)
    if decoder.pending():
        raise NetProtocolError(
            f"{decoder.pending()} trailing byte(s) after the last "
            "complete frame")
    return messages
