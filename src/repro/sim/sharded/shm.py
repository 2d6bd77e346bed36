"""Shared-memory shard transport: framed rings over ``shared_memory``.

The pipe transport of :mod:`repro.sim.sharded.coordinator` pays one syscall
plus a pickle copy through the kernel for every request/reply.  This module
replaces the byte path with a pair of single-producer/single-consumer ring
buffers in one ``multiprocessing.shared_memory`` segment per direction, so
command and reply bytes move through userspace memory the two processes
already share.

Layout and protocol
-------------------

Each direction is one :class:`ShmRing`: a 16-byte header of two little-endian
``uint64`` cursors — the *write* cursor owned by the producer and the *read*
cursor owned by the consumer — followed by ``capacity`` payload bytes used as
a circular byte stream.  Cursors are absolute monotonic byte counts
(``used = write - read``), published seqlock-style: each side mutates only
its own cursor, and reads the peer's cursor twice until two consecutive
reads agree, so a torn 8-byte read can never be mistaken for a valid
position.

On top of the byte stream, :class:`FrameChannel` speaks the length-prefixed
``<III`` frames of :mod:`repro.wire` (magic "DRTR" | payload length |
CRC-32), each carrying one pickled object.  Frames may wrap around the
ring and may be *larger than the ring*: the writer streams chunks as space
frees up and the reader drains whatever bytes are available per poll (the
"batched frame drain") into the shared frame splitter, which returns every
complete frame.  A header whose magic does not match, an implausible length,
or a CRC mismatch means the stream is torn and raises a typed
:class:`ShmProtocolError` — the channel never resynchronizes silently.

Backpressure and failure
------------------------

Each direction also has a *doorbell*: one ``multiprocessing`` semaphore,
created from the worker's start-method context.  The writer releases it
after every ring write that made progress; a reader with no whole frame
blocks in ``acquire(timeout=remaining)`` rather than sleeping, so it wakes
the moment bytes land and costs nothing while idle.  A reader that drained
bytes it was not woken for finds their tokens on its next wait, re-reads an
empty ring and blocks again: every release is matched by exactly one later
acquire, so the count stays bounded by the chunks written since the reader
last waited.

A full ring blocks the writer, which re-checks the cursor between short
sleeps (only frames larger than the ring ever fill it); while blocked, and
while a reader waits on its bell, the channel polls a ``peer_alive``
callback so a dead peer surfaces as :class:`ShmPeerGoneError` instead of a
hang, and a ``send_timeout`` bounds the write with
:class:`ShmBackpressureError`.  The coordinator maps all three onto its
usual typed shard errors.

Segments are created (and therefore owned) by the coordinator, which unlinks
them in both the polite ``close()`` and the hard ``terminate()`` teardown
paths; workers attach without resource tracking (``track=False`` where
supported, else an explicit ``resource_tracker.unregister``) so an exiting
worker neither unlinks a segment in use nor leaks tracker warnings.
:func:`shm_available` reports whether ``multiprocessing.shared_memory``
exists at all — callers fall back to the pipe transport when it does not.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro import wire
from repro.wire import (FRAME_HEADER, FRAME_MAGIC,  # noqa: F401 - re-exported
                        MAX_FRAME_BYTES)

try:  # pragma: no cover - import probe
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platforms without shm
    _shared_memory = None

#: Ring header: two little-endian uint64 cursors (write, read).
RING_HEADER_BYTES = 16
#: Default per-direction ring capacity.  Frames larger than this stream
#: through in chunks, so the size only affects how often the writer parks.
DEFAULT_RING_BYTES = 4 << 20

#: Sleep between cursor re-checks while the tx ring is full.
_SPIN_SLEEP = 0.0002
#: Seconds between peer-liveness checks while blocked.
_LIVENESS_INTERVAL = 0.05
#: Default bound on how long a write may block on a full ring.
DEFAULT_SEND_TIMEOUT = 120.0


def shm_available() -> bool:
    """True when ``multiprocessing.shared_memory`` can back the transport."""
    return _shared_memory is not None


class ShmTransportError(RuntimeError):
    """Base of every shared-memory transport failure."""


class ShmProtocolError(ShmTransportError):
    """The byte stream is torn: bad magic, implausible length or CRC."""


class ShmBackpressureError(ShmTransportError):
    """A write blocked on a full ring longer than the send timeout."""


class ShmPeerGoneError(ShmTransportError):
    """The peer process died while the channel was blocked on it."""


class ShmRing:
    """One direction of the transport: an SPSC circular byte stream.

    The ring does no framing and no blocking — :meth:`write_some` and
    :meth:`read_some` move as many bytes as cursors currently allow and
    return immediately; :class:`FrameChannel` supplies framing, blocking and
    liveness on top.  Exactly one process may write and one may read.
    """

    __slots__ = ("_buf", "capacity")

    def __init__(self, buf: memoryview, reset: bool) -> None:
        if len(buf) <= RING_HEADER_BYTES:
            raise ValueError("ring buffer too small for its header")
        self._buf = buf
        self.capacity = len(buf) - RING_HEADER_BYTES
        if reset:
            buf[0:RING_HEADER_BYTES] = bytes(RING_HEADER_BYTES)

    def _load_cursor(self, offset: int) -> int:
        """Read one 8-byte cursor, re-reading until two reads agree.

        The peer's cursor store is not atomic at the Python level; the
        double read makes a torn value impossible to act on (seqlock-style
        stability check — the owner only ever increases its cursor).
        """
        raw = bytes(self._buf[offset:offset + 8])
        while True:
            again = bytes(self._buf[offset:offset + 8])
            if again == raw:
                return int.from_bytes(raw, "little")
            raw = again

    def _store_cursor(self, offset: int, value: int) -> None:
        self._buf[offset:offset + 8] = value.to_bytes(8, "little")

    def write_some(self, data: memoryview) -> int:
        """Copy up to ``len(data)`` bytes in; returns how many were taken."""
        write = self._load_cursor(0)
        read = self._load_cursor(8)
        free = self.capacity - (write - read)
        count = min(free, len(data))
        if count <= 0:
            return 0
        start = RING_HEADER_BYTES + (write % self.capacity)
        first = min(count, self.capacity - (write % self.capacity))
        self._buf[start:start + first] = data[:first]
        if count > first:
            self._buf[RING_HEADER_BYTES:RING_HEADER_BYTES + count - first] = \
                data[first:count]
        # Publish the new write cursor only after the payload bytes are in
        # place, so the reader can never observe the space as readable early.
        self._store_cursor(0, write + count)
        return count

    def read_some(self) -> bytes:
        """Drain every currently readable byte (may be empty)."""
        write = self._load_cursor(0)
        read = self._load_cursor(8)
        count = write - read
        if count <= 0:
            return b""
        start = RING_HEADER_BYTES + (read % self.capacity)
        first = min(count, self.capacity - (read % self.capacity))
        out = bytes(self._buf[start:start + first])
        if count > first:
            out += bytes(self._buf[RING_HEADER_BYTES:
                                   RING_HEADER_BYTES + count - first])
        self._store_cursor(8, read + count)
        return out


def _attach_untracked(name: str, shared_tracker: bool):
    """Attach to a segment without double-tracking it in resource_tracker.

    Attaching normally registers the segment with the *attaching* process's
    resource tracker (opted out via ``track=False`` since Python 3.13).  On
    older interpreters the right correction depends on whose tracker that
    is, which the caller passes down as ``shared_tracker``:

    * a process with a tracker of its own: revert the registration
      explicitly, else that tracker unlinks the segment when the process
      exits — destroying it under the coordinator — and spams leak
      warnings;
    * the coordinator or a worker it started (``shared_tracker=True``;
      fork, spawn and forkserver children all inherit the coordinator's
      tracker): the attach re-registered an already-tracked name (a set,
      so a no-op) — an explicit unregister here would strip the
      coordinator's own registration and make its later unlink
      double-unregister.
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        segment = _shared_memory.SharedMemory(name=name)
        if not shared_tracker:
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:  # noqa: BLE001 - tracker layout varies
                pass
        return segment


class FrameChannel:
    """A ``Connection``-like duplex channel over two :class:`ShmRing` s.

    Implements exactly the surface the shard protocol uses from a
    ``multiprocessing`` pipe connection — ``send`` / ``poll`` / ``recv`` /
    ``close`` — so the coordinator and the worker loop drive it unchanged.
    ``tx_bell`` / ``rx_bell`` are the doorbells of the two directions (any
    object with ``release()`` and ``acquire(timeout=...)``: a
    ``multiprocessing`` semaphore across processes, a ``threading`` one
    within a process).
    """

    def __init__(self, tx: ShmRing, rx: ShmRing, tx_bell: Any, rx_bell: Any,
                 peer_alive: Optional[Callable[[], bool]] = None,
                 send_timeout: float = DEFAULT_SEND_TIMEOUT,
                 segments: Tuple[Any, ...] = ()) -> None:
        self._tx = tx
        self._rx = rx
        self._tx_bell = tx_bell
        self._rx_bell = rx_bell
        self._peer_alive = peer_alive
        self._send_timeout = send_timeout
        self._segments = segments
        self._splitter = wire.FrameSplitter(ShmProtocolError)
        self._inbox: Deque[Any] = deque()
        self._closed = False

    def set_peer_alive(self, probe: Callable[[], bool]) -> None:
        """Install the liveness callback checked while blocked on the peer."""
        self._peer_alive = probe

    def _check_peer(self) -> None:
        if self._peer_alive is not None and not self._peer_alive():
            raise ShmPeerGoneError(
                "peer process died while the shm channel was blocked on it")

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #

    def send(self, obj: Any) -> None:
        """Frame, checksum and stream one pickled object into the tx ring,
        ringing the peer's doorbell after every chunk that went in."""
        if self._closed:
            raise OSError("shm channel is closed")
        frame = memoryview(
            wire.frame(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)))
        sent = 0
        deadline = None
        next_liveness = 0.0
        while True:
            wrote = self._tx.write_some(frame[sent:])
            if wrote:
                self._tx_bell.release()
                sent += wrote
                if sent == len(frame):
                    return
                # Progress resets the stall clock: a slow drain of a frame
                # larger than the ring is streaming, not backpressure.
                deadline = None
                continue
            now = time.monotonic()
            if deadline is None:
                deadline = now + self._send_timeout
            if now >= next_liveness:
                self._check_peer()
                next_liveness = now + _LIVENESS_INTERVAL
            if now >= deadline:
                raise ShmBackpressureError(
                    f"shm ring stayed full for {self._send_timeout:.0f}s "
                    f"({len(frame) - sent} of {len(frame)} frame bytes "
                    "unsent)")
            time.sleep(_SPIN_SLEEP)

    # ------------------------------------------------------------------ #
    # Receiving
    # ------------------------------------------------------------------ #

    def poll(self, timeout: float = 0.0) -> bool:
        """True when a complete frame is ready within ``timeout`` seconds."""
        if self._inbox:
            return True
        deadline = time.monotonic() + timeout
        while True:
            # One batched drain: pull all readable bytes, decode whole frames.
            for payload in self._splitter.feed(self._rx.read_some()):
                self._inbox.append(pickle.loads(payload))
            if self._inbox:
                return True
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            self._rx_bell.acquire(timeout=remaining)

    def recv(self) -> Any:
        """Next decoded frame; blocks (with liveness checks) until one lands."""
        while not self.poll(_LIVENESS_INTERVAL):
            self._check_peer()
        return self._inbox.popleft()

    # ------------------------------------------------------------------ #
    # Teardown
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Drop the segment mappings (unlinking is the creator's job)."""
        if self._closed:
            return
        self._closed = True
        # Release the memoryviews before closing the segments they view.
        self._tx = self._rx = None
        for segment in self._segments:
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover - best effort
                pass


class ShmTransportPair:
    """The coordinator-owned segment pair behind one shard's channel.

    Creates two segments (coordinator→worker and worker→coordinator) and
    their doorbells, builds the coordinator-side :class:`FrameChannel` and
    hands ``names`` — both segment names, then both bells — to the worker,
    which attaches with :func:`attach_worker_channel`.  The bells come from
    ``context``, the worker's ``multiprocessing`` context (default: the
    coordinator's choice), since a fork-context semaphore cannot reach a
    spawned worker.  The owner must call :meth:`unlink` exactly once — both
    teardown paths of the coordinator do — after which the names are gone
    from ``/dev/shm``.
    """

    def __init__(self, shard_id: int, ring_bytes: int = DEFAULT_RING_BYTES,
                 context: Any = None) -> None:
        if _shared_memory is None:  # pragma: no cover - guarded by caller
            raise ShmTransportError("multiprocessing.shared_memory "
                                    "is unavailable")
        if context is None:
            from repro.sim.sharded.coordinator import _pick_context

            context = _pick_context()
        size = RING_HEADER_BYTES + ring_bytes
        suffix = os.urandom(4).hex()
        self._tx_segment = _shared_memory.SharedMemory(
            name=f"drtree_{os.getpid()}_{shard_id}_c2w_{suffix}",
            create=True, size=size)
        self._rx_segment = _shared_memory.SharedMemory(
            name=f"drtree_{os.getpid()}_{shard_id}_w2c_{suffix}",
            create=True, size=size)
        tx_bell, rx_bell = context.Semaphore(0), context.Semaphore(0)
        self.names: Tuple[str, str, Any, Any] = (
            self._tx_segment.name, self._rx_segment.name, tx_bell, rx_bell)
        self.channel = FrameChannel(
            ShmRing(self._tx_segment.buf, reset=True),
            ShmRing(self._rx_segment.buf, reset=True), tx_bell, rx_bell,
            segments=(self._tx_segment, self._rx_segment))
        self._unlinked = False

    def unlink(self) -> None:
        """Close the mappings and remove both segments (idempotent)."""
        self.channel.close()
        if self._unlinked:
            return
        self._unlinked = True
        for segment in (self._tx_segment, self._rx_segment):
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            except OSError:  # pragma: no cover - platform quirk
                pass


def attach_worker_channel(names: Tuple[str, str, Any, Any],
                          shared_tracker: bool = False) -> FrameChannel:
    """Attach the worker end of a :class:`ShmTransportPair` by its ``names``.

    The direction swap happens here: the worker reads what the coordinator
    writes and vice versa.  Attachment is untracked — the coordinator owns
    unlinking; ``shared_tracker`` says whether this process shares
    the coordinator's resource tracker (see :func:`_attach_untracked`).
    """
    tx_name, rx_name, tx_bell, rx_bell = names
    coordinator_tx = _attach_untracked(tx_name, shared_tracker)
    coordinator_rx = _attach_untracked(rx_name, shared_tracker)
    return FrameChannel(
        ShmRing(coordinator_rx.buf, reset=False),   # worker writes replies
        ShmRing(coordinator_tx.buf, reset=False),   # worker reads commands
        rx_bell, tx_bell,
        segments=(coordinator_tx, coordinator_rx))


def leaked_segments(pid: Optional[int] = None) -> List[str]:
    """Names of DR-tree shm segments still present in ``/dev/shm``.

    The leak regression tests scan with this after abnormal teardown; a
    ``pid`` filters to segments created by that coordinator process.  On
    platforms without a ``/dev/shm`` the scan is empty (not an error).
    """
    prefix = "drtree_" if pid is None else f"drtree_{pid}_"
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(entry for entry in entries if entry.startswith(prefix))
