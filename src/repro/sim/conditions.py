"""Deterministic network-condition injection, on both clocks.

One fault model serves the simulated :class:`~repro.sim.network.Network`
and ``drtree:net``'s socket runtime: message loss, transmission latency,
reordering, duplication and timed network partitions, as a *deterministic
pipeline* every message (a simulated send or an outbound frame) passes
through before it is scheduled.  This module imports nothing from the
socket backend; the socket runtime imports it.

Two pieces live here:

* :class:`NetConditions` — the frozen condition spec.  Loss is Bernoulli
  (independent per frame) or burst-Gilbert (a two-state good/bad Markov
  chain, the classic model for correlated loss); latency is fixed, uniform
  or lognormal, expressed in *simulated time units* (the simulated network
  adds it to its own delay; the socket runtime scales it by ``time_scale``
  when arming the delay); ``reorder`` holds a frame back an extra window so
  later frames overtake it; ``duplicate`` emits a second copy;
  ``drop_first`` deterministically eats the first N frames of every link
  (the test knob that makes "the retry timer fired" a certainty, not a
  coin flip); ``partitions`` are timed windows during which frames between
  peer groups are dropped.  Specs parse from a mapping (the
  ``engine_options={"conditions": {...}}`` form of ``drtree:net``) or from
  a compact string (the ``--conditions`` CLI form).
* :class:`ConditionPipeline` — the per-link decision engine.  Every link
  (ordered sender→recipient pair) owns its own named RNG stream derived
  from the master seed (:class:`~repro.sim.rng.RandomStreams`), plus its
  Gilbert chain state and frame counter.  A decision is therefore a pure
  function of ``(seed, spec, the link's frame sequence, the frame's
  submission time)`` — independent of scheduling on other links — which is
  what the property suite pins, on both clocks: same seed + same spec ⇒
  byte-identical drop/delay/duplicate decisions.

Draw-order discipline: the pipeline consumes its per-link RNG in a fixed
order (loss, latency, reorder, duplicate) on *every* frame past the
``drop_first`` prefix, even when an earlier stage already doomed the frame.
A partition window opening or closing therefore never shifts the random
decisions of the frames around it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (Any, Dict, List, Mapping, Optional, Sequence, Tuple,
                    Union)

from repro.sim.rng import RandomStreams

#: Latency models :class:`NetConditions` accepts.
LATENCY_MODELS = ("none", "fixed", "uniform", "lognormal")
#: Loss models :class:`NetConditions` accepts.
LOSS_MODELS = ("bernoulli", "gilbert")


class ConditionSpecError(ValueError):
    """A network-condition spec (mapping or ``--conditions`` string) is
    malformed: unknown key, out-of-range probability, bad latency model.
    A ``ValueError``, so engine-option validation reports it through the
    standard ``SystemSpec`` rejection path."""


@dataclass(frozen=True)
class PartitionWindow:
    """One timed partition: frames crossing groups drop during the window.

    ``start``/``duration`` are simulated time units measured from the
    moment the pipeline is installed.  Groups are either ``groups`` (peers
    hash-assigned into that many sides — the scenario form) or explicit
    ``sets`` of peer ids (the test form); peers outside every explicit set
    are unaffected.
    """

    start: float = 0.0
    duration: float = 0.0
    groups: int = 2
    sets: Tuple[Tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "duration", float(self.duration))
        object.__setattr__(self, "groups", int(self.groups))
        object.__setattr__(self, "sets",
                           tuple(tuple(str(m) for m in group)
                                 for group in self.sets))
        if self.start < 0:
            raise ConditionSpecError("partition start must be >= 0")
        if self.duration < 0:
            raise ConditionSpecError("partition duration must be >= 0")
        if not self.sets and self.groups < 2:
            raise ConditionSpecError("partition needs at least 2 groups")

    def active(self, now: float) -> bool:
        return self.start <= now < self.start + self.duration

    def separates(self, sender: str, recipient: str) -> bool:
        """True when the two peers sit on different sides of the cut."""
        if self.sets:
            side = {member: index
                    for index, group in enumerate(self.sets)
                    for member in group}
            a, b = side.get(sender), side.get(recipient)
            return a is not None and b is not None and a != b
        return _hash_group(sender, self.groups) != \
            _hash_group(recipient, self.groups)

    def to_mapping(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"start": self.start,
                                "duration": self.duration}
        if self.sets:
            data["sets"] = [list(group) for group in self.sets]
        else:
            data["groups"] = self.groups
        return data


def _hash_group(peer_id: str, groups: int) -> int:
    """Stable group assignment, independent of interpreter hash seeds."""
    digest = hashlib.sha256(peer_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % groups


@dataclass(frozen=True)
class NetConditions:
    """A validated, immutable network-condition spec."""

    #: Bernoulli per-frame loss probability (``loss_model="bernoulli"``) or
    #: ignored under the Gilbert model.
    loss: float = 0.0
    loss_model: str = "bernoulli"
    #: Gilbert chain: P(good → bad) per frame.
    gilbert_p: float = 0.0
    #: Gilbert chain: P(bad → good) per frame.
    gilbert_r: float = 0.5
    #: Loss probability while the chain sits in the bad state.
    gilbert_loss: float = 1.0
    #: Latency model and its parameters, in simulated time units.
    latency: str = "none"
    delay: float = 0.0
    delay_low: float = 0.0
    delay_high: float = 0.0
    delay_mu: float = 0.0
    delay_sigma: float = 0.25
    #: Probability a frame is held back an extra ``reorder_window`` units,
    #: letting frames submitted after it overtake it.
    reorder: float = 0.0
    reorder_window: float = 1.0
    #: Probability a frame is transmitted twice (the receiver-side dedup
    #: guard drops the redundant copy and counts it).
    duplicate: float = 0.0
    #: Deterministically drop the first N frames of every link.
    drop_first: int = 0
    partitions: Tuple[PartitionWindow, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "loss", float(self.loss))
        object.__setattr__(self, "loss_model", str(self.loss_model))
        for name in ("gilbert_p", "gilbert_r", "gilbert_loss", "delay",
                     "delay_low", "delay_high", "delay_mu", "delay_sigma",
                     "reorder", "reorder_window", "duplicate"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "latency", str(self.latency))
        object.__setattr__(self, "drop_first", int(self.drop_first))
        windows = tuple(window if isinstance(window, PartitionWindow)
                        else PartitionWindow(**dict(window))
                        for window in self.partitions)
        object.__setattr__(self, "partitions", windows)
        if self.loss_model not in LOSS_MODELS:
            raise ConditionSpecError(
                f"unknown loss model {self.loss_model!r} "
                f"(known: {LOSS_MODELS})")
        if not 0.0 <= self.loss <= 1.0:
            raise ConditionSpecError("loss must be in [0, 1]")
        for name in ("gilbert_p", "gilbert_r", "gilbert_loss", "reorder",
                     "duplicate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConditionSpecError(f"{name} must be in [0, 1]")
        if self.latency not in LATENCY_MODELS:
            raise ConditionSpecError(
                f"unknown latency model {self.latency!r} "
                f"(known: {LATENCY_MODELS})")
        if self.delay < 0 or self.delay_low < 0:
            raise ConditionSpecError("delays must be non-negative")
        if self.latency == "uniform" and self.delay_high < self.delay_low:
            raise ConditionSpecError("delay_high must be >= delay_low")
        if self.delay_sigma < 0:
            raise ConditionSpecError("delay_sigma must be non-negative")
        if self.reorder_window <= 0:
            raise ConditionSpecError("reorder_window must be positive")
        if self.drop_first < 0:
            raise ConditionSpecError("drop_first must be non-negative")

    # ------------------------------------------------------------------ #
    # Construction forms
    # ------------------------------------------------------------------ #

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "NetConditions":
        """Build from the ``engine_options`` mapping form."""
        data = dict(mapping)
        known = {spec_field.name for spec_field in
                 cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConditionSpecError(
                f"unknown condition keys {unknown} "
                f"(known: {sorted(known)})")
        return cls(**data)

    @classmethod
    def parse(cls, text: str) -> "NetConditions":
        """Build from the compact ``--conditions`` string form.

        Comma-separated ``key=value`` entries; multi-parameter values use
        colons.  Examples::

            loss=0.05
            gilbert=0.05:0.5:1.0
            latency=uniform:0.5:2
            latency=fixed:1
            latency=lognormal:0:0.5
            reorder=0.01:2
            duplicate=0.01
            drop_first=1
            partition=10:25:2      (start:duration:groups, repeatable)
        """
        data: Dict[str, Any] = {}
        windows: List[PartitionWindow] = []
        for chunk in filter(None,
                            (part.strip() for part in text.split(","))):
            if "=" not in chunk:
                raise ConditionSpecError(
                    f"condition entry {chunk!r} is not key=value")
            key, _, value = chunk.partition("=")
            key = key.strip()
            parts = [part.strip() for part in value.split(":")]
            try:
                if key == "loss":
                    data["loss"] = float(parts[0])
                elif key == "gilbert":
                    data["loss_model"] = "gilbert"
                    data["gilbert_p"] = float(parts[0])
                    if len(parts) > 1:
                        data["gilbert_r"] = float(parts[1])
                    if len(parts) > 2:
                        data["gilbert_loss"] = float(parts[2])
                elif key == "latency":
                    model = parts[0]
                    data["latency"] = model
                    if model == "fixed":
                        data["delay"] = float(parts[1])
                    elif model == "uniform":
                        data["delay_low"] = float(parts[1])
                        data["delay_high"] = float(parts[2])
                    elif model == "lognormal":
                        data["delay_mu"] = float(parts[1])
                        if len(parts) > 2:
                            data["delay_sigma"] = float(parts[2])
                elif key == "reorder":
                    data["reorder"] = float(parts[0])
                    if len(parts) > 1:
                        data["reorder_window"] = float(parts[1])
                elif key == "duplicate":
                    data["duplicate"] = float(parts[0])
                elif key == "drop_first":
                    data["drop_first"] = int(parts[0])
                elif key == "partition":
                    windows.append(PartitionWindow(
                        start=float(parts[0]), duration=float(parts[1]),
                        groups=int(parts[2]) if len(parts) > 2 else 2))
                else:
                    raise ConditionSpecError(
                        f"unknown condition key {key!r}")
            except (IndexError, ValueError) as exc:
                if isinstance(exc, ConditionSpecError):
                    raise
                raise ConditionSpecError(
                    f"malformed condition entry {chunk!r}: {exc}") from exc
        if windows:
            data["partitions"] = tuple(windows)
        return cls(**data)

    @classmethod
    def coerce(cls, value: Union[None, str, Mapping[str, Any],
                                 "NetConditions"]
               ) -> Optional["NetConditions"]:
        """Normalize any accepted spec form (``None`` stays ``None``)."""
        if value is None:
            return None
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        if isinstance(value, Mapping):
            return cls.from_mapping(value)
        raise ConditionSpecError(
            f"conditions must be a mapping, a spec string or NetConditions, "
            f"got {type(value).__name__}")

    def to_mapping(self) -> Dict[str, Any]:
        """The canonical JSON-safe mapping form (spec/trace/journal)."""
        data: Dict[str, Any] = {}
        defaults = NetConditions()
        for name in ("loss", "loss_model", "gilbert_p", "gilbert_r",
                     "gilbert_loss", "latency", "delay", "delay_low",
                     "delay_high", "delay_mu", "delay_sigma", "reorder",
                     "reorder_window", "duplicate", "drop_first"):
            value = getattr(self, name)
            if value != getattr(defaults, name):
                data[name] = value
        if self.partitions:
            data["partitions"] = [window.to_mapping()
                                  for window in self.partitions]
        return data

    @property
    def is_transparent(self) -> bool:
        """True when the pipeline cannot alter any frame (the loss=0 case)."""
        lossless = (self.loss == 0.0 if self.loss_model == "bernoulli"
                    else self.gilbert_p == 0.0 or self.gilbert_loss == 0.0)
        return (lossless and self.latency == "none" and self.reorder == 0.0
                and self.duplicate == 0.0 and self.drop_first == 0
                and not self.partitions)


@dataclass(frozen=True)
class Decision:
    """The pipeline's verdict for one submitted frame.

    Frozen: the verdicts whose fields are constant are shared module-level
    instances, not one allocation per frame.
    """

    #: Drop reason (``"drop_first"`` / ``"lost"`` / ``"partitioned"``), or
    #: ``None`` for delivery.
    drop: Optional[str] = None
    #: Extra transit delay in simulated time units.
    delay: float = 0.0
    #: Total transmissions (1, or 2 when duplicated).
    copies: int = 1
    #: True when the delay includes the reorder hold-back window.
    reordered: bool = False

    def key(self) -> Tuple[Optional[str], float, int, bool]:
        """Comparable form used by the determinism property suite."""
        return (self.drop, self.delay, self.copies, self.reordered)


#: The shared constant verdicts.
_DROP_FIRST = Decision(drop="drop_first")
_PARTITIONED = Decision(drop="partitioned")
_LOST = Decision(drop="lost")
_DELIVER = Decision()


class _LinkState:
    """Per-link RNG stream, frame counter and Gilbert chain state."""

    __slots__ = ("rng", "frames", "bad")

    def __init__(self, rng) -> None:
        self.rng = rng
        self.frames = 0
        self.bad = False


class ConditionPipeline:
    """Applies a :class:`NetConditions` spec, one decision per frame.

    ``origin`` anchors the partition-window timeline: windows are declared
    relative to the moment the pipeline is installed, so ``drtree:net``'s
    ``NetSimulation.set_conditions`` can arm a partition "starting now" on
    a long-running deployment.  ``scope``
    namespaces the per-link RNG stream names, so reinstalling a pipeline
    draws from fresh streams instead of continuing the previous ones.
    """

    def __init__(self, conditions: NetConditions, streams: RandomStreams,
                 origin: float = 0.0, scope: str = "net.conditions") -> None:
        self.conditions = conditions
        self.origin = origin
        self._streams = streams
        self._scope = scope
        self._links: Dict[Tuple[str, str], _LinkState] = {}

    def _link(self, sender: str, recipient: str) -> _LinkState:
        key = (sender, recipient)
        state = self._links.get(key)
        if state is None:
            state = _LinkState(self._streams.stream(
                f"{self._scope}.link.{sender}->{recipient}"))
            self._links[key] = state
        return state

    def _lost(self, link: _LinkState) -> bool:
        spec = self.conditions
        if spec.loss_model == "gilbert":
            # Advance the chain, then sample loss in the resulting state.
            flip = link.rng.random()
            if link.bad:
                if flip < spec.gilbert_r:
                    link.bad = False
            elif flip < spec.gilbert_p:
                link.bad = True
            return link.bad and link.rng.random() < spec.gilbert_loss
        if spec.loss <= 0.0:
            return False
        if spec.loss >= 1.0:
            return True
        return link.rng.random() < spec.loss

    def _delay(self, link: _LinkState) -> float:
        spec = self.conditions
        if spec.latency == "fixed":
            return spec.delay
        if spec.latency == "uniform":
            return link.rng.uniform(spec.delay_low, spec.delay_high)
        if spec.latency == "lognormal":
            return link.rng.lognormvariate(spec.delay_mu, spec.delay_sigma)
        return 0.0

    def _partitioned(self, sender: str, recipient: str,
                     now: float) -> bool:
        elapsed = now - self.origin
        for window in self.conditions.partitions:
            if window.active(elapsed) and window.separates(sender, recipient):
                return True
        return False

    def decide(self, sender: str, recipient: str, now: float) -> Decision:
        """One verdict for the next frame on the ``sender→recipient`` link."""
        spec = self.conditions
        link = self._link(sender, recipient)
        link.frames += 1
        if link.frames <= spec.drop_first:
            return _DROP_FIRST
        # Fixed draw order regardless of the eventual verdict (see module
        # docstring): loss, latency, reorder, duplicate.
        lost = self._lost(link)
        delay = self._delay(link)
        reordered = spec.reorder > 0.0 and link.rng.random() < spec.reorder
        duplicated = (spec.duplicate > 0.0
                      and link.rng.random() < spec.duplicate)
        if spec.partitions and self._partitioned(sender, recipient, now):
            return _PARTITIONED
        if lost:
            return _LOST
        if reordered:
            delay += spec.reorder_window
        elif delay == 0.0 and not duplicated:
            return _DELIVER
        return Decision(drop=None, delay=delay,
                        copies=2 if duplicated else 1, reordered=reordered)

    def decide_sequence(self, frames: Sequence[Tuple[str, str, float]]
                        ) -> List[Decision]:
        """Decisions for a synthetic frame sequence (the property-suite
        entry point: no sockets, no runtime — just the pure pipeline)."""
        return [self.decide(sender, recipient, now)
                for sender, recipient, now in frames]
