"""The shared frame format (``repro.wire``): one codec for shm and net.

Both byte transports — the shared-memory shard rings and the loopback TCP
backend — frame their payloads through this module, so its properties are
checked once here: arbitrary payload lists survive arbitrary chunking, and
every way a stream can be torn raises *the error type the transport passed
in*, with the message fragments the transports' own fault suites pin.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import NetProtocolError
from repro.net.codec import decode_frames
from repro.sim.sharded.shm import ShmProtocolError
from repro.wire import (FRAME_HEADER, FRAME_MAGIC, MAX_FRAME_BYTES,
                        FrameSplitter, frame)


class _Torn(Exception):
    """A caller-chosen error type no transport defines."""


ERROR_TYPES = [_Torn, ShmProtocolError, NetProtocolError]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_payload_lists_round_trip_under_arbitrary_chunking(data):
    payloads = data.draw(st.lists(st.binary(max_size=64), max_size=6))
    blob = b"".join(frame(payload) for payload in payloads)
    splitter = FrameSplitter(_Torn)
    decoded = []
    cursor = 0
    while cursor < len(blob):
        size = data.draw(st.integers(min_value=1, max_value=len(blob) - cursor),
                         label="chunk")
        decoded.extend(splitter.feed(blob[cursor:cursor + size]))
        cursor += size
    assert decoded == payloads
    assert splitter.pending() == 0


def test_frame_layout_is_header_then_payload():
    framed = frame(b"abc")
    magic, length, _crc = FRAME_HEADER.unpack_from(framed)
    assert (magic, length) == (FRAME_MAGIC, 3)
    assert framed[FRAME_HEADER.size:] == b"abc"
    assert FRAME_HEADER.size == 12 and FRAME_MAGIC == 0x44525452


@pytest.mark.parametrize("error", ERROR_TYPES)
def test_torn_streams_raise_the_callers_error_type(error):
    good = frame(b"payload")
    torn = {
        "bad magic": FRAME_HEADER.pack(0xDEADBEEF, 4, 0) + b"junk",
        "implausible": FRAME_HEADER.pack(FRAME_MAGIC, MAX_FRAME_BYTES + 1, 0),
        "CRC": good[:-1] + bytes([good[-1] ^ 0x01]),
    }
    for fragment, stream in torn.items():
        # A valid frame first: the tear is found past it, and nothing the
        # feed had already parsed is handed out alongside the error.
        splitter = FrameSplitter(error)
        with pytest.raises(error, match=fragment):
            splitter.feed(good + stream)
        with pytest.raises(error, match=fragment):
            splitter.feed(b"")  # a torn stream stays torn


def test_truncated_tail_waits_then_completes():
    framed = frame(b"slow frame")
    splitter = FrameSplitter(_Torn)
    assert splitter.feed(framed[:FRAME_HEADER.size + 3]) == []
    assert splitter.pending() == FRAME_HEADER.size + 3
    assert splitter.feed(framed[FRAME_HEADER.size + 3:]) == [b"slow frame"]
    assert splitter.pending() == 0


def test_net_codec_reports_a_truncated_complete_input_as_trailing():
    """``decode_frames`` owns the one check the splitter cannot make: for a
    *complete* input, bytes left pending are a torn stream."""
    from repro.net import encode_frame
    from repro.sim.messages import Message

    framed = encode_frame(Message("a", "b", "EVENT"))
    with pytest.raises(NetProtocolError, match="trailing"):
        decode_frames(framed[:-1])
