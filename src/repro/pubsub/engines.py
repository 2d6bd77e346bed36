"""The DR-tree dissemination-engine registry.

The publish/subscribe facade (:class:`~repro.pubsub.api.PubSubSystem`) does
not hard-code how the simulated overlay schedules its PUBLISH fan-out; it
asks this registry for a named *engine* and lets the engine build the
simulation.  Three engines ship with the reproduction:

* ``classic`` — one scheduling operation per message (the paper's model,
  unchanged),
* ``batched`` — every message joins the per-round delivery queue of its
  instant; identical delivery outcomes, faster under sustained load (see
  ``docs/architecture.md``),
* ``sharded`` — the multi-process simulator of :mod:`repro.sim.sharded`:
  the peer set is partitioned across worker processes (one DR-tree subtree
  per shard) with cross-shard messages exchanged at round barriers over
  pickled pipes or shared-memory frame rings; delivery metrics are
  byte-identical to ``classic`` on the same seed.  Takes the engine
  options ``shards`` (worker count, default 2) and ``transport``
  (``process``/``pipe``/``shm``/``inline``/``auto``); every shard worker
  schedules with per-round queues.

Every engine runs the same PUBLISH fan-out
(:mod:`repro.overlay.dissemination`); they differ only in how its messages
are scheduled and carried.

The registry is the extension point further engines plug into:
:func:`register_engine` a factory, and every consumer — the
``engine=`` facade parameter, the ``drtree:<engine>`` backend names of
:mod:`repro.api`, trace replay's engine override — picks it up by name.
Engine *options* (e.g. ``--shards``) travel as a mapping through
:class:`~repro.api.spec.SystemSpec.engine_options` and are resolved into
the engine's typed :class:`EngineOptions` dataclass (declared on its
:class:`EngineSpec`) before construction — unknown keys and invalid values
are rejected with an error naming the engine and its allowed keys, at
:class:`~repro.api.spec.SystemSpec` construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import (TYPE_CHECKING, Any, Callable, Dict, FrozenSet, List,
                    Mapping, Optional, Type, Union)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.builder import DRTreeSimulation
    from repro.overlay.config import DRTreeConfig


class UnknownEngineError(ValueError):
    """An engine name is not in the registry."""


@dataclass(frozen=True)
class EngineOptions:
    """Base of the per-engine typed option sets.

    An engine declares its options as a frozen dataclass subclass (fields
    with defaults, value validation in ``__post_init__``) and attaches it to
    its :class:`EngineSpec`.  The base class declares no fields, which is
    exactly the contract of the engines that take no options.
    """

    @classmethod
    def keys(cls) -> List[str]:
        """The option names this engine accepts."""
        return [spec_field.name for spec_field in fields(cls)]

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

    def to_mapping(self) -> Dict[str, Any]:
        """The options as a plain mapping (spec/trace/journal form)."""
        return {spec_field.name: getattr(self, spec_field.name)
                for spec_field in fields(self)}


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
        if self.transport not in ("auto", "process", "pipe", "shm",
                                  "inline"):
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
    #: :meth:`repro.net.conditions.NetConditions.to_mapping`) so specs,
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
            from repro.net.conditions import NetConditions

            spec = NetConditions.coerce(self.conditions)
            object.__setattr__(self, "conditions", spec.to_mapping())

    def resolved_conditions(self):
        """The validated :class:`~repro.net.conditions.NetConditions`, or
        ``None`` when the network is perfect."""
        if self.conditions is None:
            return None
        from repro.net.conditions import NetConditions

        return NetConditions.coerce(self.conditions)


@dataclass(frozen=True)
class EngineSpec:
    """A registered dissemination engine.

    ``factory`` builds the simulation the facade operates — a
    :class:`~repro.overlay.builder.DRTreeSimulation` or anything exposing
    its driving surface (the sharded engine returns a
    :class:`~repro.sim.sharded.ShardedSimulation`) — from ``(config, seed,
    options)`` where ``options`` is the engine's resolved
    :attr:`options_type` instance.

    ``capabilities`` is what brokers built on this engine advertise to
    :mod:`repro.api.capabilities` (the simulated engines support
    ``snapshot``; the real-network engine does not).  ``metrics_identical``
    states whether the engine reproduces the simulated engines' delivery
    *metrics rows* bit for bit on the same op stream: the real-network
    engine delivers the identical event sets (digest-checked) but its
    message counts include timing-dependent background-stabilizer traffic,
    so row-level comparisons are relaxed to digest comparisons for it.
    """

    name: str
    description: str
    factory: Callable[..., "DRTreeSimulation"] = \
        field(repr=False, default=None)  # type: ignore[assignment]
    #: The typed option set this engine accepts (none by default).
    options_type: Type[EngineOptions] = EngineOptions
    #: Capability names brokers on this engine advertise.
    capabilities: FrozenSet[str] = frozenset({"snapshot"})
    #: True when delivery-metrics rows are reproducible across runs and
    #: comparable field-by-field with the simulated engines.
    metrics_identical: bool = True

    def resolve_options(self, options: Optional[Union[Mapping[str, Any],
                                                      EngineOptions]]
                        ) -> EngineOptions:
        """Validate ``options`` into this engine's typed option set."""
        if isinstance(options, EngineOptions):
            if type(options) is not self.options_type:
                raise ValueError(
                    f"engine {self.name!r} takes "
                    f"{self.options_type.__name__}, "
                    f"got {type(options).__name__}")
            return options
        return self.options_type.from_mapping(self.name, options)

    def build(self, config: Optional["DRTreeConfig"], seed: int,
              options: Optional[Union[Mapping[str, Any], EngineOptions]] = None
              ) -> "DRTreeSimulation":
        """Construct the simulation this engine drives."""
        return self.factory(config, seed, self.resolve_options(options))


_ENGINES: Dict[str, EngineSpec] = {}


def register_engine(spec: EngineSpec) -> EngineSpec:
    """Add an engine; duplicate names are errors."""
    if spec.name in _ENGINES:
        raise ValueError(f"engine {spec.name!r} is already registered")
    _ENGINES[spec.name] = spec
    return spec


def get_engine(name: str) -> EngineSpec:
    """Look up an engine by name."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise UnknownEngineError(
            f"unknown dissemination engine {name!r}; "
            f"registered: {engine_names()}") from None


def engine_names() -> List[str]:
    """Registered engine names, in registration order."""
    return list(_ENGINES)


def _build_classic(config: Optional["DRTreeConfig"], seed: int,
                   options: EngineOptions) -> "DRTreeSimulation":
    from repro.overlay.builder import DRTreeSimulation

    return DRTreeSimulation(config=config, seed=seed, batch=False)


def _build_batched(config: Optional["DRTreeConfig"], seed: int,
                   options: EngineOptions) -> "DRTreeSimulation":
    from repro.overlay.builder import DRTreeSimulation

    return DRTreeSimulation(config=config, seed=seed, batch=True)


def _build_sharded(config: Optional["DRTreeConfig"], seed: int,
                   options: ShardedOptions):
    from repro.sim.sharded import ShardedSimulation

    return ShardedSimulation(config=config, seed=seed, shards=options.shards,
                             transport=options.transport)


register_engine(EngineSpec(
    name="classic",
    description="one scheduling operation per message (the paper's model)",
    factory=_build_classic,
))
register_engine(EngineSpec(
    name="batched",
    description="per-round delivery queues for every message; "
                "identical outcomes, faster under sustained load",
    factory=_build_batched,
))
def _build_net(config: Optional["DRTreeConfig"], seed: int,
               options: NetOptions):
    from repro.net.broker import NetSimulation

    return NetSimulation(config=config, seed=seed, options=options)


register_engine(EngineSpec(
    name="sharded",
    description="multi-process simulator: one DR-tree subtree per shard, "
                "cross-shard messages over pipes or shared-memory rings "
                "with a round-barrier merge; delivery metrics identical to "
                "classic (options: shards, transport)",
    factory=_build_sharded,
    options_type=ShardedOptions,
))
register_engine(EngineSpec(
    name="net",
    description="real-network backend: every peer owns a loopback TCP "
                "server on an asyncio runtime, overlay messages travel as "
                "CRC-framed pickled frames, and a jittered per-peer "
                "background stabilizer replaces the global round barrier; "
                "delivered-event sets identical to classic (digest-checked), "
                "message counts timing-dependent (options: time_scale, "
                "stabilizer, jitter, send_retries, retry_backoff, "
                "max_channels, idle_timeout, conditions — deterministic "
                "loss/latency/partition injection)",
    factory=_build_net,
    options_type=NetOptions,
    capabilities=frozenset(),
    metrics_identical=False,
))
