"""The span-target table: the only file of the benchmark that names internals.

Every entry maps a span name of the benchmark's own vocabulary to the
``module:qualname`` attributes the tracer wraps to record it.  A function is
wrapped where it is *looked up* at call time, which for a ``from x import f``
binding is the importing module, not the defining one.

A target that no longer resolves (a refactor moved or renamed it) is skipped
with one warning line; the per-layer metrics fed by its span then read as
``null`` in the result file.  Nothing here runs in an untraced run.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, Tuple

_SIMULATIONS = (
    "repro.overlay.builder:DRTreeSimulation",
    "repro.sim.sharded.coordinator:ShardedSimulation",
    "repro.net.broker:NetSimulation",
)


def _on_simulations(method: str) -> Tuple[str, ...]:
    return tuple(f"{target}.{method}" for target in _SIMULATIONS)


_FACADE = "repro.pubsub.api:PubSubSystem"

#: Span name -> the attributes wrapped to record it.
SPANS: Dict[str, Tuple[str, ...]] = {
    # -- facade, accounting, ground-truth oracle ------------------------- #
    **{f"pubsub.api.{op}": (f"{_FACADE}.{op}",)
       for op in ("publish", "subscribe", "subscribe_all", "unsubscribe",
                  "fail", "move_subscription", "stabilize", "snapshot")},
    "pubsub.matching": ("repro.pubsub.accounting:matching_subscribers",),
    "pubsub.accounting.start_event":
        ("repro.pubsub.accounting:DeliveryAccounting.start_event",),
    "pubsub.accounting.record_delivery":
        ("repro.pubsub.accounting:DeliveryAccounting.record_delivery",),
    "api.build": ("repro.api.spec:SystemSpec.build",),
    # -- simulation driving surface (one class per engine family) -------- #
    "sim.publish": _on_simulations("publish"),
    "sim.settle": _on_simulations("settle"),
    "sim.stabilize": _on_simulations("stabilize"),
    "sim.bulk_load": _on_simulations("bulk_load"),
    "sim.add_peer": _on_simulations("add_peer"),
    "sim.leave": _on_simulations("leave"),
    "sim.crash": _on_simulations("crash"),
    "sim.run_round": ("repro.overlay.builder:DRTreeSimulation.run_round",),
    # -- overlay --------------------------------------------------------- #
    "overlay.verifier.verify":
        ("repro.overlay.verifier:OverlayVerifier.verify",),
    "overlay.dissemination.publish":
        ("repro.overlay.dissemination:DisseminationMixin.publish",),
    "overlay.dissemination.handle_publish_down":
        ("repro.overlay.dissemination:DisseminationMixin.handle_publish_down",),
    "overlay.dissemination.handle_publish_up":
        ("repro.overlay.dissemination:DisseminationMixin.handle_publish_up",),
    "overlay.layout.compute_layout":
        ("repro.overlay.bootstrap:compute_layout",
         "repro.sim.sharded.coordinator:compute_layout"),
    "overlay.bootstrap.wire_layout": ("repro.overlay.bootstrap:wire_layout",),
    # -- shard transport (coordinator side) ------------------------------ #
    "sim.sharded.send": ("repro.sim.sharded.shm:FrameChannel.send",),
    "sim.sharded.recv": ("repro.sim.sharded.shm:FrameChannel.recv",),
    # -- net runtime (loop thread) --------------------------------------- #
    "net.runtime.enqueue": ("repro.net.runtime:NetRuntime.enqueue",),
    "net.runtime.dispatch": ("repro.net.runtime:NetRuntime.dispatch",),
    # -- journal, trace interpreter -------------------------------------- #
    "journal.append": ("repro.journal.io:JournalWriter.append",),
    "journal.sync": ("repro.journal.io:JournalWriter.sync",),
    "journal.compress": ("repro.journal.recorder:compress_snapshot",),
    "traces.apply_op": ("repro.traces.replay:apply_op",),
}

#: Spans whose first argument is also kept (the first few hundred), so the
#: codec and transport probes can replay real payloads.
CAPTURED = ("sim.sharded.send", "net.runtime.enqueue")

#: Called far too often to record a span each: these only count calls.
COUNTED: Dict[str, Tuple[str, ...]] = {
    "spatial.union_of": ("repro.spatial.rectangle:Rect.union_of",),
}

#: Functions the direct probes call (never wrapped).
PROBED: Dict[str, str] = {
    "rect": "repro.spatial.rectangle:Rect",
    "child_ids_containing_point":
        "repro.spatial.containment:child_ids_containing_point",
    "encode_frame": "repro.net.codec:encode_frame",
    "frame_decoder": "repro.net.codec:FrameDecoder",
    "shm_pair": "repro.sim.sharded.shm:ShmTransportPair",
    "attach_worker_channel": "repro.sim.sharded.shm:attach_worker_channel",
}


def resolve(target: str) -> Tuple[Any, str, Any]:
    """``module:qualname`` -> (owner object, attribute name, raw attribute).

    The raw attribute is what the owner's ``__dict__`` holds — a
    ``classmethod`` object stays one — so the tracer can rewrap it in kind.
    Raises ``ImportError`` or ``AttributeError`` when the target is gone.
    """
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = qualname.split(".")
    for name in parents:
        owner = getattr(owner, name)
    try:
        raw = vars(owner)[attribute]
    except KeyError:
        raise AttributeError(
            f"{target}: {attribute!r} is not defined on {owner!r}") from None
    return owner, attribute, raw


def probed(name: str) -> Any:
    """The object a direct probe calls, or ``None`` when it is gone."""
    try:
        owner, attribute, _ = resolve(PROBED[name])
    except (ImportError, AttributeError):
        return None
    return getattr(owner, attribute)


def all_targets() -> Tuple[str, ...]:
    """Every ``module:qualname`` this table names (the resolution test)."""
    wrapped = [target for group in (SPANS, COUNTED)
               for targets in group.values() for target in targets]
    return tuple(wrapped) + tuple(PROBED.values())
