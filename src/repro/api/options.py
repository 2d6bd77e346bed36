"""The typed engine options of the ``drtree:<engine>`` backends.

Each engine's construction knobs (``--shards``, ``--time-scale``, ...) are
a frozen dataclass: fields with defaults, value validation in
``__post_init__``.  A row of the backend table (:mod:`repro.api.registry`)
names its option class, and every user-supplied mapping is resolved into it
before anything is built.  The classes live apart from the table so the
engines that read them (:mod:`repro.net`) import a leaf module.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.sim.conditions import NetConditions

#: Every shard transport name the ``sharded`` engine accepts.  ``pipe`` is
#: an alias of ``process`` (one worker process per shard over a pickled
#: pipe); ``shm`` runs the same workers over shared-memory rings;
#: ``inline`` executes shards synchronously in-process; ``auto`` resolves
#: via the ``REPRO_SHARD_TRANSPORT`` environment variable, then to
#: ``inline`` inside daemonic processes and ``process`` everywhere else.
TRANSPORTS = ("auto", "inline", "process", "pipe", "shm")


@dataclass(frozen=True)
class EngineOptions:
    """Base of the per-engine typed option sets.

    An engine declares its options as a frozen dataclass subclass (fields
    with defaults, value validation in ``__post_init__``) and names it in
    its :class:`~repro.api.registry.BackendSpec` row.  The base class
    declares no fields, which is exactly the contract of the engines that
    take no options.
    """

    @classmethod
    def keys(cls) -> List[str]:
        """The option names this engine accepts."""
        return [spec_field.name for spec_field in fields(cls)]

    def to_mapping(self) -> Dict[str, Any]:
        """The mapping that resolves back to this option set: every field
        whose value differs from its default."""
        return {spec_field.name: getattr(self, spec_field.name)
                for spec_field in fields(self)
                if getattr(self, spec_field.name) != spec_field.default}

    @classmethod
    def from_mapping(cls, engine: str,
                     options: Optional[Mapping[str, Any]]) -> "EngineOptions":
        """Resolve a user-supplied mapping into a validated option set.

        Raises :class:`ValueError` naming the engine and its allowed keys
        for unknown options, and wrapping any value-validation failure.
        """
        mapping = dict(options or {})
        unknown = sorted(set(mapping) - set(cls.keys()))
        if unknown:
            raise ValueError(
                f"engine {engine!r} does not accept engine options "
                f"{unknown} (known: {sorted(cls.keys())})")
        try:
            return cls(**mapping)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"engine {engine!r} rejected engine options "
                f"{mapping!r}: {exc}") from exc


@dataclass(frozen=True)
class ShardedOptions(EngineOptions):
    """Typed options of the ``sharded`` engine."""

    #: Target worker count, applied at bulk-load time.
    shards: int = 2
    #: ``process``/``pipe`` (worker processes over a pickled pipe), ``shm``
    #: (worker processes over shared-memory frame rings, falling back to
    #: the pipe where ``shared_memory`` is unavailable), ``inline``
    #: (synchronous in-process execution, used where children are
    #: forbidden, e.g. daemonic pool workers), or ``auto``.
    transport: str = "auto"

    def __post_init__(self) -> None:
        object.__setattr__(self, "shards", int(self.shards))
        object.__setattr__(self, "transport", str(self.transport))
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.transport not in TRANSPORTS:
            raise ValueError(f"unknown shard transport {self.transport!r}")


@dataclass(frozen=True)
class NetOptions(EngineOptions):
    """Typed options of the ``net`` engine (:mod:`repro.net`)."""

    #: Real seconds per simulated time unit: protocol timers declared in
    #: simulated units (e.g. ``stabilization_period``) are scaled by this
    #: factor when armed on the asyncio event loop.
    time_scale: float = 0.02
    #: ``periodic`` runs one jittered background stabilizer task per peer;
    #: ``off`` disables them (stabilization then only happens through the
    #: facade's explicit driven cycles).
    stabilizer: str = "periodic"
    #: Jitter fraction applied to each background stabilizer interval.
    jitter: float = 0.2
    #: Bounded retries for transient transport failures on sends.
    send_retries: int = 3
    #: Initial retry backoff in real seconds (doubled per attempt).
    retry_backoff: float = 0.05
    #: LRU cap on pooled outbound connections (each costs two loopback fds).
    max_channels: int = 2000
    #: Hard bound, in real seconds, on any single quiescence wait.
    idle_timeout: float = 60.0
    #: Deterministic network-condition spec (loss, latency, reorder,
    #: duplication, partitions) applied to every outbound frame — a
    #: mapping, a compact ``--conditions`` string, or ``None`` for a
    #: perfect network.  Normalized to the canonical mapping form (see
    #: :meth:`repro.sim.conditions.NetConditions.to_mapping`) so specs,
    #: traces and journals carry a JSON-safe value.
    conditions: Optional[Union[Mapping[str, Any], str]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "time_scale", float(self.time_scale))
        object.__setattr__(self, "stabilizer", str(self.stabilizer))
        object.__setattr__(self, "jitter", float(self.jitter))
        object.__setattr__(self, "send_retries", int(self.send_retries))
        object.__setattr__(self, "retry_backoff", float(self.retry_backoff))
        object.__setattr__(self, "max_channels", int(self.max_channels))
        object.__setattr__(self, "idle_timeout", float(self.idle_timeout))
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if self.stabilizer not in ("periodic", "off"):
            raise ValueError(f"unknown stabilizer mode {self.stabilizer!r}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.send_retries < 0:
            raise ValueError("send_retries must be non-negative")
        if self.retry_backoff <= 0:
            raise ValueError("retry_backoff must be positive")
        if self.max_channels < 1:
            raise ValueError("max_channels must be at least 1")
        if self.idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive")
        if self.conditions is not None:
            spec = NetConditions.coerce(self.conditions)
            object.__setattr__(self, "conditions", spec.to_mapping())

    def resolved_conditions(self):
        """The validated :class:`~repro.sim.conditions.NetConditions`, or
        ``None`` when the network is perfect."""
        return NetConditions.coerce(self.conditions)
