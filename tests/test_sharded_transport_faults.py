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


def make_pair(capacity=4096, send_timeout=120.0, bells=None):
    """A loopback channel pair over plain bytearrays (no real segments).

    The ring protocol only needs a shared buffer; backing it with process
    memory lets every protocol-level fault be injected deterministically.
    ``bells`` are the doorbells of the left→right and right→left
    directions (default: two ``threading.Semaphore(0)``).
    """
    a = memoryview(bytearray(RING_HEADER_BYTES + capacity))
    b = memoryview(bytearray(RING_HEADER_BYTES + capacity))
    to_right, to_left = bells or (threading.Semaphore(0),
                                  threading.Semaphore(0))
    left = FrameChannel(ShmRing(a, reset=True), ShmRing(b, reset=True),
                        to_right, to_left, send_timeout=send_timeout)
    right = FrameChannel(ShmRing(b, reset=False), ShmRing(a, reset=False),
                         to_left, to_right, send_timeout=send_timeout)
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
    """Stands in for the ``time`` module inside ``repro.sim.sharded.shm``,
    and for an idle doorbell that waits out every ``acquire`` timeout."""

    def __init__(self):
        self.now = 100.0
        self.sleeps = []
        self.waits = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds

    def acquire(self, timeout=None):
        self.waits.append(timeout)
        self.now += timeout
        return False

    def release(self):
        raise AssertionError("nobody writes in this test")


def test_idle_reader_waits_on_its_bell_until_the_deadline(monkeypatch):
    """An idle reader blocks on its doorbell for what is left of the
    timeout and returns ``False`` exactly at the deadline, never sleeping."""
    from repro.sim.sharded import shm

    clock = _FakeClock()
    monkeypatch.setattr(shm, "time", clock)
    _left, right = make_pair(bells=(clock, clock))
    assert not right.poll(0.05)
    assert clock.now - 100.0 == pytest.approx(0.05)
    assert clock.waits == [pytest.approx(0.05)]
    assert clock.sleeps == []


def test_a_frame_from_another_thread_wakes_a_blocked_reader():
    left, right = make_pair()
    woke = []

    def reader():
        start = time.monotonic()
        woke.append((right.poll(5.0), time.monotonic() - start))

    thread = threading.Thread(target=reader)
    thread.start()
    time.sleep(0.05)   # let the reader block on its bell
    left.send("late")
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    [(ready, waited)] = woke
    assert ready
    assert waited < 0.5, f"reader woke {waited:.3f}s after its poll began"
    assert right.recv() == "late"


def test_reader_blocked_on_its_bell_notices_dead_peer():
    left, right = make_pair()
    alive = [True]
    right.set_peer_alive(lambda: alive[0])
    raised = []

    def reader():
        try:
            right.recv()
        except ShmPeerGoneError as exc:
            raised.append(exc)

    thread = threading.Thread(target=reader)
    thread.start()
    time.sleep(0.1)    # several liveness slices on an idle bell
    assert thread.is_alive() and not raised
    alive[0] = False
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert len(raised) == 1


class _CountingBell:
    """A doorbell that counts successful acquires and releases."""

    def __init__(self):
        self._bell = threading.Semaphore(0)
        self.releases = 0
        self.acquires = 0

    def release(self):
        self.releases += 1
        self._bell.release()

    def acquire(self, timeout=None):
        got = self._bell.acquire(timeout=timeout)
        self.acquires += got
        return got


def test_every_release_is_matched_by_one_acquire():
    """After many round trips, and one idle wait per reader, each bell has
    been acquired exactly as often as it was rung: tokens never pile up."""
    bells = (_CountingBell(), _CountingBell())
    left, right = make_pair(bells=bells)

    def echo():
        for _ in range(1000):
            right.send(right.recv())

    thread = threading.Thread(target=echo)
    thread.start()
    for number in range(1000):
        left.send(number)
        assert left.recv() == number
    thread.join(timeout=30.0)
    assert not thread.is_alive()
    assert not left.poll(0.01) and not right.poll(0.01)
    for bell in bells:
        assert bell.releases == 1000   # one chunk per frame
        assert bell.acquires == bell.releases


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
