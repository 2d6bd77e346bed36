"""Fault injection for the shared-memory shard transport.

The parity suites prove the shm transport is invisible when everything
works; this suite proves it is *loud* when something breaks.  The contract
under test (``repro.sim.sharded.shm`` docstring): a torn or corrupt byte
stream raises a typed :class:`ShmProtocolError` instead of resynchronizing
silently; a full ring bounds the writer with :class:`ShmBackpressureError`;
a dead peer surfaces as :class:`ShmPeerGoneError` (and, through the
coordinator, as the usual :class:`ShardFailedError`) instead of a hang; and
no teardown path — polite close, worker SIGKILL, coordinator
KeyboardInterrupt — leaves a ``drtree_*`` segment behind in ``/dev/shm``.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import subprocess
import sys
import threading
import time
from zlib import crc32

import pytest

import repro
from repro.overlay.config import DRTreeConfig
from repro.sim.sharded import ShardedSimulation, ShardFailedError, shm_available
from repro.sim.sharded.shm import (FRAME_HEADER, FRAME_MAGIC,
                                   MAX_FRAME_BYTES, RING_HEADER_BYTES,
                                   FrameChannel, ShmBackpressureError,
                                   ShmPeerGoneError, ShmProtocolError,
                                   ShmRing, leaked_segments)
from repro.workloads.events import targeted_events
from repro.workloads.subscriptions import uniform_subscriptions

pytestmark = pytest.mark.skipif(not shm_available(),
                                reason="multiprocessing.shared_memory "
                                       "unavailable on this platform")

CONFIG = DRTreeConfig(min_children=4, max_children=8)


def make_pair(capacity=4096, send_timeout=120.0):
    """A loopback channel pair over plain bytearrays (no real segments).

    The ring protocol only needs a shared buffer; backing it with process
    memory lets every protocol-level fault be injected deterministically.
    """
    a = memoryview(bytearray(RING_HEADER_BYTES + capacity))
    b = memoryview(bytearray(RING_HEADER_BYTES + capacity))
    left = FrameChannel(ShmRing(a, reset=True), ShmRing(b, reset=True),
                        send_timeout=send_timeout)
    right = FrameChannel(ShmRing(b, reset=False), ShmRing(a, reset=False),
                         send_timeout=send_timeout)
    return left, right


def _write_raw(channel, data):
    """Push raw bytes into a channel's tx ring, bypassing framing."""
    view = memoryview(data)
    sent = 0
    while sent < len(view):
        wrote = channel._tx.write_some(view[sent:])
        assert wrote > 0, "raw write overran the ring"
        sent += wrote


# --------------------------------------------------------------------------- #
# Protocol-level faults
# --------------------------------------------------------------------------- #


def test_frames_round_trip_in_both_directions():
    left, right = make_pair()
    left.send(("cmd", 1, {"a": [1.5, None]}))
    right.send({"reply": "ok"})
    assert right.poll(1.0)
    assert right.recv() == ("cmd", 1, {"a": [1.5, None]})
    assert left.recv() == {"reply": "ok"}
    assert not right.poll(0.0)


def test_bad_magic_raises_protocol_error():
    left, right = make_pair()
    _write_raw(left, FRAME_HEADER.pack(0xDEADBEEF, 4, 0) + b"junk")
    with pytest.raises(ShmProtocolError, match="bad magic"):
        right.poll(0.5)


def test_implausible_length_raises_protocol_error():
    left, right = make_pair()
    _write_raw(left, FRAME_HEADER.pack(FRAME_MAGIC, MAX_FRAME_BYTES + 1, 0))
    with pytest.raises(ShmProtocolError, match="implausible"):
        right.poll(0.5)


def test_crc_mismatch_raises_protocol_error():
    left, right = make_pair()
    payload = pickle.dumps("payload")
    _write_raw(left, FRAME_HEADER.pack(FRAME_MAGIC, len(payload),
                                       crc32(payload) ^ 0xFFFFFFFF) + payload)
    with pytest.raises(ShmProtocolError, match="CRC"):
        right.poll(0.5)


def test_truncated_frame_waits_instead_of_desyncing():
    """An incomplete frame is pending bytes, not an error — and completing
    it later yields the object, so a slow writer can never desync a reader."""
    left, right = make_pair()
    payload = pickle.dumps(["slow", "frame"])
    frame = FRAME_HEADER.pack(FRAME_MAGIC, len(payload),
                              crc32(payload)) + payload
    _write_raw(left, frame[:FRAME_HEADER.size + 3])
    assert not right.poll(0.05)
    _write_raw(left, frame[FRAME_HEADER.size + 3:])
    assert right.poll(1.0)
    assert right.recv() == ["slow", "frame"]


def test_corruption_after_good_frames_is_still_caught():
    """The stream offset in the error proves parsing got past valid frames."""
    left, right = make_pair()
    left.send("good-1")
    left.send("good-2")
    _write_raw(left, struct.pack("<I", 0x01020304) * 3)
    with pytest.raises(ShmProtocolError):
        while True:
            right.recv()


# --------------------------------------------------------------------------- #
# Backpressure and liveness
# --------------------------------------------------------------------------- #


def test_ring_full_backpressure_raises_after_timeout():
    left, _right = make_pair(capacity=64, send_timeout=0.05)
    with pytest.raises(ShmBackpressureError, match="stayed full"):
        left.send(b"x" * 4096)  # nobody drains the 64-byte ring


def test_blocked_send_notices_dead_peer():
    left, _right = make_pair(capacity=64, send_timeout=30.0)
    left.set_peer_alive(lambda: False)
    start = time.monotonic()
    with pytest.raises(ShmPeerGoneError):
        left.send(b"x" * 4096)
    assert time.monotonic() - start < 5.0, "liveness check did not short-cut"


def test_blocked_recv_notices_dead_peer():
    left, _right = make_pair()
    left.set_peer_alive(lambda: False)
    with pytest.raises(ShmPeerGoneError):
        left.recv()


def test_frames_larger_than_the_ring_stream_through():
    """A frame bigger than the ring is streamed, not rejected: the writer
    parks on the full ring while the reader's batched drains free space."""
    left, right = make_pair(capacity=1024, send_timeout=30.0)
    big = os.urandom(200_000)
    received = []
    reader = threading.Thread(target=lambda: received.append(right.recv()))
    reader.start()
    left.send(big)
    reader.join(timeout=30.0)
    assert not reader.is_alive()
    assert received == [big]


class _FakeClock:
    """Stands in for the ``time`` module inside ``repro.sim.sharded.shm``."""

    def __init__(self, on_sleep=None):
        self.now = 100.0
        self.sleeps = []
        self._on_sleep = on_sleep

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds
        if self._on_sleep is not None:
            self._on_sleep(len(self.sleeps))


def test_idle_reader_backs_off_and_never_oversleeps_its_deadline(monkeypatch):
    """A reader waits in short sleeps first (a reply is usually a moment
    away), then — idle — in long ones, so an idle worker costs ~1 % of a CPU
    instead of 7 %; the last sleep is cut to what is left of the timeout."""
    from repro.sim.sharded import shm

    clock = _FakeClock()
    monkeypatch.setattr(shm, "time", clock)
    _left, right = make_pair()
    assert not right.poll(0.05)
    short, long_ = shm._SPIN_SLEEP, shm._IDLE_SLEEP
    assert clock.sleeps[:shm._IDLE_AFTER] == [short] * shm._IDLE_AFTER
    assert set(clock.sleeps[shm._IDLE_AFTER:-1]) == {long_}
    assert 0 < clock.sleeps[-1] <= long_
    assert clock.now - 100.0 == pytest.approx(0.05)
    assert len(clock.sleeps) < 0.05 / short / 4


def test_bytes_of_a_streaming_frame_reset_the_idle_backoff(monkeypatch):
    from repro.sim.sharded import shm

    payload = pickle.dumps("late")
    frame = FRAME_HEADER.pack(FRAME_MAGIC, len(payload),
                              crc32(payload)) + payload
    arrives = shm._IDLE_AFTER + 3   # well into the long sleeps

    def on_sleep(count):
        if count == arrives:
            _write_raw(left, frame[:5])
        elif count == arrives + 4:
            _write_raw(left, frame[5:])

    clock = _FakeClock(on_sleep)
    monkeypatch.setattr(shm, "time", clock)
    left, right = make_pair()
    assert right.poll(1.0)
    assert right.recv() == "late"
    assert clock.sleeps[arrives - 1] == shm._IDLE_SLEEP
    assert clock.sleeps[arrives:] == [shm._SPIN_SLEEP] * 4


def test_send_on_closed_channel_raises():
    left, _right = make_pair()
    left.close()
    left.close()  # idempotent
    with pytest.raises(OSError, match="closed"):
        left.send("anything")


# --------------------------------------------------------------------------- #
# Worker death and segment hygiene, end to end
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def bulk_workload():
    workload = uniform_subscriptions(560, seed=3)
    subs = list(workload)
    stream = targeted_events(workload.space, subs, 12, seed=11)
    return workload.space, subs, stream


def test_sigkilled_worker_raises_shard_failed_not_hang(bulk_workload):
    _space, subs, stream = bulk_workload
    sim = ShardedSimulation(config=CONFIG, seed=3, shards=2, transport="shm")
    try:
        sim.bulk_load(subs)
        sim.stabilize(max_rounds=50)
        victim = sim._shards[1]
        victim.process.kill()
        victim.process.join(timeout=5)
        with pytest.raises(ShardFailedError, match="shard 1"):
            for event in stream:
                sim.publish(subs[0].name, event)
    finally:
        sim.close()
    assert leaked_segments(os.getpid()) == []


def test_polite_close_unlinks_every_segment(bulk_workload):
    _space, subs, _stream = bulk_workload
    sim = ShardedSimulation(config=CONFIG, seed=3, shards=4, transport="shm")
    try:
        sim.bulk_load(subs)
        assert leaked_segments(os.getpid()), "expected live segments mid-run"
    finally:
        sim.close()
    assert leaked_segments(os.getpid()) == []
    sim.close()  # idempotent, must not raise on already-unlinked segments


_INTERRUPT_SCRIPT = """
import signal
from repro.overlay.config import DRTreeConfig
from repro.sim.sharded import ShardedSimulation
from repro.workloads.subscriptions import uniform_subscriptions

sim = ShardedSimulation(config=DRTreeConfig(min_children=4, max_children=8),
                        seed=3, shards=2, transport="shm")
sim.bulk_load(list(uniform_subscriptions(560, seed=3)))
print("READY", flush=True)
signal.pause()
"""


def test_keyboard_interrupt_run_leaves_no_segments(tmp_path):
    """SIGINT with no cleanup handler anywhere must not leak ``/dev/shm``.

    The interrupted coordinator never reaches ``close()``; the segments it
    created must still disappear once the process is gone (its resource
    tracker reaps what teardown could not).  The scan keys on the dead
    coordinator's pid, so concurrent tests cannot interfere.
    """
    src_root = str(os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen([sys.executable, "-c", _INTERRUPT_SCRIPT],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    try:
        assert proc.stdout.readline().strip() == "READY"
        assert leaked_segments(proc.pid), \
            "expected live segments before the interrupt"
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + 30.0
    while leaked_segments(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert leaked_segments(proc.pid) == []
