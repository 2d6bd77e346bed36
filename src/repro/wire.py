"""The one frame format every byte transport of the reproduction speaks.

Both the shared-memory shard transport (:mod:`repro.sim.sharded.shm`) and
the real-network backend (:mod:`repro.net.codec`) move opaque payloads as
length-prefixed, checksummed frames::

    <III  =  magic (0x44525452, "DRTR") | payload length | CRC-32

followed by ``length`` payload bytes.  :func:`frame` wraps one payload,
:class:`FrameSplitter` cuts an arbitrarily chunked byte stream back into
payloads.  What a payload *means* (a pickled shard command, a pickled
:class:`~repro.sim.messages.Message`) and which typed error a torn stream
raises stay with the transport that calls.
"""

from __future__ import annotations

import struct
from typing import List, Type
from zlib import crc32

#: Frame header: magic, payload length, CRC-32 of the payload.
FRAME_HEADER = struct.Struct("<III")
FRAME_MAGIC = 0x44525452  # "DRTR"
#: Sanity bound on a single frame's payload; anything larger is a torn
#: stream, not a real payload (bulk_wire at 1M peers stays far below this).
MAX_FRAME_BYTES = 1 << 30


def frame(payload: bytes) -> bytes:
    """One payload as a framed byte string."""
    return FRAME_HEADER.pack(FRAME_MAGIC, len(payload),
                             crc32(payload)) + payload


class FrameSplitter:
    """Incremental frame parser over an unbounded byte stream.

    A header whose magic does not match, an implausible length, or a CRC
    mismatch means the stream is torn: the splitter raises ``error`` (each
    transport passes its own typed fault) and never resynchronizes
    silently — the caller must drop the stream.
    """

    def __init__(self, error: Type[Exception]) -> None:
        self._error = error
        self._buffer = bytearray()

    def pending(self) -> int:
        """Bytes buffered but not yet parsed into a complete frame."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> List[bytes]:
        """Absorb ``chunk``; return the payload of every frame it completed.

        An incomplete trailing frame stays buffered for the next chunk.
        After a raise the stream is dead: the offending bytes stay buffered
        and every later call raises again.
        """
        buffer = self._buffer
        buffer += chunk
        payloads: List[bytes] = []
        offset = 0
        # The view is released before the trim: a bytearray cannot be
        # resized while a memoryview exports it.
        with memoryview(buffer) as view:
            while len(view) - offset >= FRAME_HEADER.size:
                magic, length, checksum = FRAME_HEADER.unpack_from(view,
                                                                   offset)
                if magic != FRAME_MAGIC:
                    raise self._error(
                        f"torn frame: bad magic 0x{magic:08x} (expected "
                        f"0x{FRAME_MAGIC:08x}) at offset {offset} of the "
                        "pending bytes")
                if length > MAX_FRAME_BYTES:
                    raise self._error(
                        f"torn frame: implausible payload length {length} "
                        f"(cap {MAX_FRAME_BYTES})")
                start = offset + FRAME_HEADER.size
                end = start + length
                if len(view) < end:
                    break  # incomplete frame; wait for more bytes
                payload = bytes(view[start:end])
                if crc32(payload) != checksum:
                    raise self._error(
                        f"corrupt frame: CRC mismatch on a {length}-byte "
                        "payload")
                payloads.append(payload)
                offset = end
        if offset:
            del buffer[:offset]
        return payloads
