"""Typed failures of the sharded multi-process simulator.

Every error a worker process can surface crosses the pipe as data and is
re-raised parent-side as one of these types, so callers never hang on a dead
worker and never lose the shard attribution of a failure.
"""

from __future__ import annotations

from repro.sim.engine import SimulationStalledError


class ShardFailedError(RuntimeError):
    """A worker process died or misbehaved (crash, pipe loss, internal error).

    Raised by the coordinator instead of hanging on a pipe whose worker has
    exited; ``shard_id`` names the failed shard (-1 when no single shard is
    attributable).
    """

    def __init__(self, shard_id: int, detail: str) -> None:
        super().__init__(f"shard {shard_id}: {detail}")
        self.shard_id = shard_id
        self.detail = detail


class ShardStalledError(SimulationStalledError):
    """A shard's simulation stalled (its event cap was hit with work queued).

    Subclasses :class:`~repro.sim.engine.SimulationStalledError` so callers
    that handle single-process stalls handle sharded ones identically; the
    originating shard travels along as ``shard_id``.
    """

    def __init__(self, shard_id: int, detail: str) -> None:
        super().__init__(f"shard {shard_id}: {detail}")
        self.shard_id = shard_id
        self.detail = detail


class ShardedUnsupportedError(NotImplementedError):
    """A requested variation of an operation is not available when sharded.

    The sharded engine supports the full facade surface — joins are
    created on the root's shard and departures run on the owning shard —
    but a few parameterizations have no sharded equivalent: peers named differently from their subscription, and
    ``add_peer`` without the join-and-settle protocol (use ``bulk_load``
    for pre-wired construction).  Those raise this error instead of
    silently doing the wrong thing.
    """
