"""The backend table: one row per broker backend, name → how to build it.

Backends come in two families:

* ``drtree:<engine>`` — the paper's DR-tree overlay, driven by the
  :class:`~repro.pubsub.api.PubSubSystem` facade on a named engine:
  ``classic`` and ``batched`` (one in-process simulator; the two names are
  contract and schedule identically), ``sharded`` (the multi-process
  simulator of :mod:`repro.sim.sharded`, options ``shards`` and
  ``transport``) and ``net`` (the real-socket runtime of :mod:`repro.net`).
  Each row carries the builder of the simulation the facade drives.
* flat names (``flooding``, ``centralized``, ``per-dimension``,
  ``containment-tree``) — :func:`register_backend` factories producing a
  :class:`~repro.baselines.broker.BaselineBroker` over the corresponding
  analytic overlay.

Every consumer — :func:`create_broker`, the ``engine=`` parameter of the
facade, :class:`~repro.api.spec.SystemSpec` validation, trace replay's
backend override, the ``throughput`` scenario — resolves names through this
one table.  Engine *options* (e.g. ``--shards``) travel as a mapping through
:attr:`~repro.api.spec.SystemSpec.engine_options` and are resolved into the
row's typed :class:`~repro.api.options.EngineOptions` dataclass before
construction — unknown keys and invalid values are rejected with an error
naming the engine and its allowed keys, at
:class:`~repro.api.spec.SystemSpec` construction time.

:func:`normalize_backend` canonicalizes user spellings (``drtree`` →
``drtree:classic``, ``per_dimension`` → ``per-dimension``) so the CLI, the
trace format and the scenario parameters all accept the same names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, FrozenSet, List,
                    Mapping, Optional, Type, Union)

from repro.api.options import EngineOptions, NetOptions, ShardedOptions
from repro.api.spec import SystemSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.broker import Broker
    from repro.overlay.config import DRTreeConfig

#: A factory building a broker from a spec (the spec's ``backend`` is
#: already normalized when the factory runs).
BackendFactory = Callable[[SystemSpec], "Broker"]

#: Prefix of the DR-tree backend family.
DRTREE_PREFIX = "drtree"


class UnknownBackendError(ValueError):
    """A backend (or DR-tree engine) name is not in the table."""


@dataclass(frozen=True)
class BackendSpec:
    """One row of the backend table.

    ``factory`` builds the broker from a :class:`SystemSpec`.  A DR-tree
    row also carries ``simulation``, which builds the simulation the facade
    operates — a :class:`~repro.overlay.builder.DRTreeSimulation` or
    anything exposing its driving surface — from ``(config, seed,
    options)``, ``options`` being the row's resolved :attr:`options_type`
    instance.

    ``capabilities`` is what brokers of this row advertise to
    :mod:`repro.api.capabilities` (the simulated engines support
    ``snapshot``; the real-network engine does not).  ``metrics_identical``
    states whether the backend reproduces its delivery *metrics rows* bit
    for bit on the same op stream: the real-network engine delivers the
    identical event sets (digest-checked) but its message counts include
    timing-dependent background-stabilizer traffic, so row-level
    comparisons are relaxed to digest comparisons for it.
    """

    name: str
    factory: BackendFactory
    #: The typed option set this backend accepts (none by default).
    options_type: Type[EngineOptions] = EngineOptions
    #: Capability names brokers of this backend advertise.
    capabilities: FrozenSet[str] = frozenset({"snapshot"})
    #: True when delivery-metrics rows are reproducible across runs and
    #: comparable field-by-field with the simulated engines.
    metrics_identical: bool = True
    #: DR-tree rows: ``(config, seed, options) -> simulation``.
    simulation: Optional[Callable[..., Any]] = None

    @property
    def family(self) -> str:
        """``"drtree"`` or the flat baseline name."""
        return self.name.split(":", 1)[0]

    @property
    def engine(self) -> str:
        """The part after ``drtree:`` (a flat name is its own engine)."""
        return self.name.split(":", 1)[-1]

    def resolve_options(self, options: Optional[Union[Mapping[str, Any],
                                                      EngineOptions]]
                        ) -> EngineOptions:
        """Validate ``options`` into this row's typed option set."""
        if isinstance(options, EngineOptions):
            if type(options) is not self.options_type:
                raise ValueError(
                    f"engine {self.engine!r} takes "
                    f"{self.options_type.__name__}, "
                    f"got {type(options).__name__}")
            return options
        return self.options_type.from_mapping(self.engine, options)

    def build_simulation(self, config: Optional["DRTreeConfig"], seed: int,
                         options: Optional[Union[Mapping[str, Any],
                                                 EngineOptions]] = None):
        """Construct the simulation of this DR-tree row."""
        return self.simulation(config, seed, self.resolve_options(options))


_BACKENDS: Dict[str, BackendSpec] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register a flat-named backend; duplicate names are errors."""
    key = name.strip().lower().replace("_", "-")
    if key.startswith(f"{DRTREE_PREFIX}:") or key == DRTREE_PREFIX:
        raise ValueError(
            f"{name!r}: drtree backends are the table's built-in engine "
            "rows, not registered here")
    if key in _BACKENDS:
        raise ValueError(f"backend {name!r} is already registered")
    _BACKENDS[key] = BackendSpec(key, factory)


def drtree_engine(engine: str) -> BackendSpec:
    """The ``drtree:<engine>`` row of the table."""
    spec = _BACKENDS.get(f"{DRTREE_PREFIX}:{engine}")
    if spec is None:
        engines = [row.engine for row in _BACKENDS.values()
                   if row.family == DRTREE_PREFIX]
        raise UnknownBackendError(
            f"unknown dissemination engine {engine!r}; "
            f"registered: {engines}")
    return spec


def backend_spec(name: str) -> BackendSpec:
    """The row of any accepted spelling of a backend name."""
    return _BACKENDS[normalize_backend(name)]


def backend_names() -> List[str]:
    """Every valid canonical backend name (drtree engines first)."""
    return ([name for name, spec in _BACKENDS.items()
             if spec.family == DRTREE_PREFIX]
            + sorted(name for name, spec in _BACKENDS.items()
                     if spec.family != DRTREE_PREFIX))


def backend_family(name: str) -> str:
    """The backend's family: ``"drtree"`` or the flat baseline name."""
    return backend_spec(name).family


def backend_metrics_identical(name: str) -> bool:
    """Whether the backend's delivery-metrics rows are run-reproducible.

    The simulated engines reproduce the metrics row bit for bit on the same
    op stream, while the real-network engine's message counts include
    timing-dependent background-stabilizer traffic (its delivered-event
    *sets* are still digest-identical).  Baseline backends are analytic and
    always reproducible.
    """
    return backend_spec(name).metrics_identical


def normalize_backend(name: str) -> str:
    """Canonicalize a backend name, validating it against the table.

    Accepts underscore spellings and the bare ``drtree`` alias (classic
    engine); raises :class:`UnknownBackendError` for anything else.
    """
    key = str(name).strip().lower().replace("_", "-")
    if key == DRTREE_PREFIX:
        return f"{DRTREE_PREFIX}:classic"
    if key.startswith(f"{DRTREE_PREFIX}:"):
        try:
            drtree_engine(key.split(":", 1)[1])
        except UnknownBackendError as exc:
            raise UnknownBackendError(
                f"unknown backend {name!r}: {exc}") from exc
        return key
    if key in _BACKENDS:
        return key
    raise UnknownBackendError(
        f"unknown backend {name!r}; available: {backend_names()}")


def validate_engine_options(backend: str, options) -> None:
    """Validate engine options against a backend, for spec construction.

    DR-tree backends resolve the mapping through the row's typed
    :class:`~repro.api.options.EngineOptions` dataclass (unknown keys and
    invalid values raise ``ValueError`` naming the engine and its allowed
    keys); baseline backends accept none.  An unknown backend name is left for
    :func:`create_broker` to report, so a spec can still be constructed and
    fail with the richer error at build time.
    """
    try:
        spec = backend_spec(backend)
    except UnknownBackendError:
        return
    if spec.family == DRTREE_PREFIX:
        spec.resolve_options(options)
    elif options:
        raise ValueError(
            f"backend {spec.name!r} takes no engine options; "
            f"got {options!r}")


def create_broker(spec: SystemSpec) -> "Broker":
    """Build the broker ``spec`` describes (the ``Broker`` protocol)."""
    row = backend_spec(spec.backend)
    if row.name != spec.backend:
        spec = spec.with_backend(row.name)
    return row.factory(spec)


# --------------------------------------------------------------------------- #
# The DR-tree engines
# --------------------------------------------------------------------------- #


def _drtree_broker(spec: SystemSpec) -> "Broker":
    from repro.pubsub.api import PubSubSystem

    return PubSubSystem(spec.space, spec.config, seed=spec.seed,
                        stabilize_rounds=spec.stabilize_rounds,
                        engine=spec.backend.split(":", 1)[1],
                        engine_options=spec.engine_options)


def _in_process(config: Optional["DRTreeConfig"], seed: int,
                options: EngineOptions):
    from repro.overlay.builder import DRTreeSimulation

    return DRTreeSimulation(config=config, seed=seed)


def _sharded(config: Optional["DRTreeConfig"], seed: int,
             options: ShardedOptions):
    from repro.sim.sharded import ShardedSimulation

    return ShardedSimulation(config=config, seed=seed, shards=options.shards,
                             transport=options.transport)


def _net(config: Optional["DRTreeConfig"], seed: int, options: NetOptions):
    from repro.net.broker import NetSimulation

    return NetSimulation(config=config, seed=seed, options=options)


_BACKENDS.update((row.name, row) for row in (
    BackendSpec("drtree:classic", _drtree_broker, simulation=_in_process),
    BackendSpec("drtree:batched", _drtree_broker, simulation=_in_process),
    BackendSpec("drtree:sharded", _drtree_broker,
                options_type=ShardedOptions, simulation=_sharded),
    BackendSpec("drtree:net", _drtree_broker, options_type=NetOptions,
                capabilities=frozenset(), metrics_identical=False,
                simulation=_net),
))


# --------------------------------------------------------------------------- #
# The four baseline backends
# --------------------------------------------------------------------------- #


def _flooding(spec: SystemSpec) -> "Broker":
    from repro.baselines.broker import BaselineBroker
    from repro.baselines.flooding import FloodingOverlay

    return BaselineBroker(spec, FloodingOverlay(degree=4, seed=spec.seed,
                                                space=spec.space))


def _centralized(spec: SystemSpec) -> "Broker":
    from repro.baselines.broker import BaselineBroker
    from repro.baselines.centralized import CentralizedBrokerOverlay

    return BaselineBroker(spec, CentralizedBrokerOverlay(space=spec.space))


def _per_dimension(spec: SystemSpec) -> "Broker":
    from repro.baselines.broker import BaselineBroker
    from repro.baselines.per_dimension import PerDimensionOverlay

    return BaselineBroker(spec, PerDimensionOverlay(space=spec.space))


def _containment_tree(spec: SystemSpec) -> "Broker":
    from repro.baselines.broker import BaselineBroker
    from repro.baselines.containment_tree import ContainmentTreeOverlay

    return BaselineBroker(spec, ContainmentTreeOverlay(space=spec.space))


register_backend("flooding", _flooding)
register_backend("centralized", _centralized)
register_backend("per-dimension", _per_dimension)
register_backend("containment-tree", _containment_tree)
