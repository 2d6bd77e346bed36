"""Sharded multi-process DR-tree simulation.

Partitions the peer set across worker processes — one DR-tree subtree per
shard, chosen at bulk-load time from the STR tiling — and exchanges
cross-shard messages at round barriers over pickled pipes or shared-memory
frame rings (:mod:`repro.sim.sharded.shm`, framed by :mod:`repro.wire`).
Runs are deterministic.  For a bulk load and publishes, delivery metrics
are byte-identical to the single-process ``drtree:classic`` engine on the
same seed; after a join, a departure or a crash the repaired tree can be
shaped differently (legal, no false negatives, other message counts).  The
transport is the only execution choice (engine options ``shards`` and
``transport``): one coordinator-side worker proxy drives whichever channel
it is given.

The ``drtree:sharded`` row of the backend table (:mod:`repro.api.registry`)
makes it a backend everywhere: the facade
(``PubSubSystem(engine="sharded")``), the CLI (``--backend drtree:sharded
--shards N --transport shm``), traces and the
``backend_matrix``/``throughput``/``scale`` scenarios.  See
``docs/architecture.md`` ("The sharded engine").
"""

from repro.sim.sharded.coordinator import (ShardedSimulation,
                                           ShardPeerHandle, TRANSPORTS,
                                           TRANSPORT_ENV_VAR,
                                           resolve_transport)
from repro.sim.sharded.errors import (ShardedUnsupportedError,
                                      ShardFailedError, ShardStalledError)
from repro.sim.sharded.shm import (FrameChannel, ShmBackpressureError,
                                   ShmPeerGoneError, ShmProtocolError,
                                   ShmRing, ShmTransportError, shm_available)
from repro.sim.sharded.worker import ShardNetwork, ShardRuntime

__all__ = [
    "ShardedSimulation",
    "ShardPeerHandle",
    "ShardNetwork",
    "ShardRuntime",
    "ShardFailedError",
    "ShardStalledError",
    "ShardedUnsupportedError",
    "ShmTransportError",
    "ShmProtocolError",
    "ShmBackpressureError",
    "ShmPeerGoneError",
    "ShmRing",
    "FrameChannel",
    "TRANSPORTS",
    "TRANSPORT_ENV_VAR",
    "resolve_transport",
    "shm_available",
]
