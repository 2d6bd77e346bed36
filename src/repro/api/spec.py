"""The :class:`SystemSpec` — everything needed to (re)build one broker.

A spec is the value that travels between the layers: scenarios build brokers
from it (:func:`~repro.experiments.harness.build_pubsub_system`), the trace
recorder serializes it into every ``system`` record, and the replay engine
rebuilds bit-identical systems from it.  Because the spec names its backend
(``"drtree:classic"``, ``"flooding"``, ...) instead of carrying booleans,
adding a backend never changes this dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Mapping, Optional, Union

from repro.api.options import EngineOptions
from repro.spatial.filters import AttributeSpace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.broker import Broker
    from repro.overlay.config import DRTreeConfig

#: The backend every spec defaults to: the paper's DR-tree on the classic
#: engine.
DEFAULT_BACKEND = "drtree:classic"


@dataclass(frozen=True)
class SystemSpec:
    """A complete, serializable description of one publish/subscribe system.

    ``backend`` is a name from :mod:`repro.api.registry` —
    ``drtree:<engine>`` for the DR-tree (``classic``, ``batched``,
    ``sharded`` or ``net``) or a baseline name (``flooding``,
    ``centralized``, ``per-dimension``, ``containment-tree``).  ``config``
    is the DR-tree node-capacity configuration; baseline backends ignore it.
    """

    space: AttributeSpace
    backend: str = DEFAULT_BACKEND
    config: Optional["DRTreeConfig"] = None
    seed: int = 0
    stabilize_rounds: int = 30
    #: Engine-specific construction knobs of ``drtree:<engine>`` backends
    #: (e.g. ``{"shards": 4}`` for ``drtree:sharded``).  Options affect only
    #: *how* the engine executes — never delivery outcomes — so they are not
    #: part of a system's trace identity; baseline backends accept none.
    engine_options: Optional[Union[Mapping[str, Any], EngineOptions]] = None

    def __post_init__(self) -> None:
        # Engine options are validated against the backend's typed option
        # dataclass (repro.api.options.EngineOptions) here, at spec
        # construction, so a typo'd option name fails where it was written
        # rather than deep inside a later build().  dataclasses.replace()
        # re-runs this, so with_backend/with_engine_options revalidate too.
        from repro.api.registry import validate_engine_options

        validate_engine_options(self.backend, self.engine_options)

    def build(self) -> "Broker":
        """Construct the broker this spec describes."""
        from repro.api.registry import create_broker

        return create_broker(self)

    def with_backend(self, backend: str) -> "SystemSpec":
        """The same spec targeting a different backend."""
        return replace(self, backend=backend)

    def with_engine_options(self,
                            options: Optional[Union[Mapping[str, Any],
                                                    EngineOptions]]
                            ) -> "SystemSpec":
        """The same spec with different engine options (a mapping, or an
        instance of the backend's typed option set)."""
        if isinstance(options, EngineOptions):
            return replace(self, engine_options=options)
        return replace(self,
                       engine_options=dict(options) if options else None)
