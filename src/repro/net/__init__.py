"""The real-network DR-tree backend (``drtree:net``).

Every overlay peer owns a real loopback TCP stream server on a shared
asyncio event loop; the unchanged :class:`~repro.overlay.peer.DRTreePeer`
protocol logic exchanges its messages as length-prefixed CRC-checked frames
(:mod:`~repro.net.codec` over :mod:`repro.wire`, the ``<III`` format the
shared-memory shard transport speaks too), and a jittered per-peer
background stabilizer task (:mod:`~repro.net.stabilizer`) replaces the
simulator's global ``stabilize()`` round barrier.

Module map:

* :mod:`~repro.net.faults` — the typed fault hierarchy (``NetError`` →
  ``NetTimeoutError`` / ``PeerUnreachableError`` / ``NetProtocolError`` /
  ``ConditionSpecError``),
* :mod:`~repro.net.codec` — frame encoding and the incremental decoder,
* :mod:`~repro.net.conditions` — deterministic network-condition injection
  (seeded per-link loss/latency/reorder/duplication/partition pipeline),
* :mod:`~repro.net.runtime` — the event-loop thread, pooled outbound
  channels with bounded retry/backoff, the in-flight ledger that turns
  "stabilize" into a quiescence wait, and the real-time clock adapter,
* :mod:`~repro.net.peer` — the per-peer endpoint (TCP server + dispatch),
* :mod:`~repro.net.stabilizer` — the periodic background stabilizer task,
* :mod:`~repro.net.broker` — :class:`~repro.net.broker.NetSimulation`, the
  driving surface the pub/sub facade operates, bridging its synchronous
  calls onto the async runtime.

Select it like any other backend: ``SystemSpec(backend="drtree:net")``,
``--backend drtree:net`` on the CLI, or ``engine="net"`` on the facade.
See ``docs/net.md``.
"""

from repro.net.broker import NetSimulation
from repro.net.codec import FrameDecoder, encode_frame
from repro.net.conditions import (ConditionPipeline, NetConditions,
                                  PartitionWindow)
from repro.net.faults import (ConditionSpecError, NetError, NetProtocolError,
                              NetTimeoutError, PeerUnreachableError)
from repro.wire import FRAME_HEADER, FRAME_MAGIC, MAX_FRAME_BYTES

__all__ = [
    "ConditionPipeline",
    "ConditionSpecError",
    "FRAME_HEADER",
    "FRAME_MAGIC",
    "MAX_FRAME_BYTES",
    "FrameDecoder",
    "NetConditions",
    "NetError",
    "NetProtocolError",
    "NetSimulation",
    "NetTimeoutError",
    "PartitionWindow",
    "PeerUnreachableError",
    "encode_frame",
]
