"""Frame codec of the real-network backend.

The wire format is :mod:`repro.wire`'s — the 12-byte ``<III`` header
(magic "DRTR" | payload length | CRC-32) the shared-memory shard transport
speaks too — carrying one pickled :class:`~repro.sim.messages.Message`
envelope per frame.  A torn stream (bad magic, implausible length, CRC
mismatch) or a payload that is not a ``Message`` raises a typed
:class:`~repro.net.faults.NetProtocolError`; the codec never
resynchronizes silently.

:class:`FrameDecoder` is incremental: feed it whatever chunk the socket
produced and it yields every complete message parsed out of its pending
buffer, keeping the remainder for the next chunk.  This is what the
tamper-detection property tests drive byte by byte.
"""

from __future__ import annotations

import pickle
from typing import List

from repro.net.faults import NetProtocolError
from repro.sim.messages import Message
from repro.wire import FrameSplitter, frame


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
        payload); the caller must drop the connection.
        """
        messages: List[Message] = []
        for payload in self._splitter.feed(chunk):
            try:
                message = pickle.loads(payload)
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
