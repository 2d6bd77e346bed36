"""The versioned trace record model.

A *trace* is the complete, replayable record of one scenario run: every
workload decision that reached the publish/subscribe facade — joins
(``subscribe``/``subscribe_all``), controlled leaves (``unsubscribe``),
crashes (``crash``), subscription moves (``move``), publications
(``publish``) and explicit stabilizations (``stabilize``) — together with
the seeds and configuration needed to rebuild each simulated system and the
simulated timestamp at which each operation was issued.

On disk a trace is JSON lines (one canonical JSON object per line, sorted
keys, no whitespace); see :mod:`repro.traces.io` for the serialization and
``docs/traces.md`` for the format reference.  In memory it is the
:class:`Trace` object: a :class:`TraceHeader`, an ordered body of
:class:`SystemRecord` / :class:`OpRecord` entries, and trailing
:class:`ExpectRecord` entries holding the delivery metrics observed at
recording time (the replay engine re-derives and cross-checks them).

All structural validation funnels through :func:`Trace.from_dicts`, which
raises :class:`~repro.traces.errors.TraceFormatError` — never ``KeyError`` —
on malformed input.

:class:`SystemRecord` and :class:`OpRecord` are also the value types of the
durable journal (:mod:`repro.journal`): a journal holds the same records in
a hash-chained envelope, so the record parsers here take the
:class:`Envelope` they are reading — :data:`TRACE` or
:data:`repro.journal.records.JOURNAL` — and raise that file format's error.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from repro.spatial.filters import (AttributeSpace, Event, Predicate,
                                   Subscription, subscription_from_rect)
from repro.spatial.rectangle import Rect
from repro.traces.errors import TraceFormatError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.broker import Broker

#: The trace format identifier written into every header.
TRACE_FORMAT = "repro-trace"
#: The base schema version (headers default to it; writers emit the lowest
#: version that can carry the trace, so version-1 files stay byte-stable).
TRACE_VERSION = 1
#: Version 2 adds typed engine options to ``system`` records.
TRACE_VERSION_ENGINE_OPTIONS = 2
#: Every version this reader understands.
TRACE_VERSIONS = (1, 2)

#: The op schema: each workload operation a trace or journal may contain,
#: with its payload fields in the order the facade method takes them.  The
#: one place the payload keys are spelled: :func:`op_payload` builds a
#: payload from it and the op-record parser requires exactly these fields.
OP_FIELDS = {
    "subscribe": ("subscription", "stabilize"),
    "subscribe_all": ("subscriptions", "stabilize", "bulk"),
    "unsubscribe": ("id",),
    "crash": ("id", "stabilize"),
    "move": ("id", "subscription", "stabilize"),
    "publish": ("event", "publisher"),
    "stabilize": ("max_rounds",),
}
#: The op names, in schema order.
TRACE_OPS = tuple(OP_FIELDS)


# --------------------------------------------------------------------------- #
# Value (de)serialization helpers
# --------------------------------------------------------------------------- #


def _bound_to_json(value: float) -> Union[float, str]:
    """JSON-safe rectangle bound: ``±inf`` becomes the string ``"±inf"``."""
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return value


def number_to_float(value: Any, what: str, error: type = TraceFormatError,
                    line: Optional[int] = None) -> float:
    """``float(value)`` of a parsed JSON number; an integer beyond the float
    range (which no writer emits) raises ``error`` instead of
    ``OverflowError``."""
    try:
        return float(value)
    except OverflowError:
        raise error(f"{what} is beyond the float range",
                    line=line) from None


def _bound_from_json(value: Any) -> float:
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TraceFormatError(f"rectangle bound must be a number, got {value!r}")
    return number_to_float(value, "rectangle bound")


def subscription_to_json(subscription: Subscription) -> Dict[str, Any]:
    """Serialize a subscription (rectangle or predicate form)."""
    if subscription.predicates:
        return {
            "name": subscription.name,
            "predicates": [
                [p.attribute, p.operator, p.value]
                for p in subscription.predicates
            ],
        }
    return {
        "name": subscription.name,
        "rect": {
            "lower": [_bound_to_json(v) for v in subscription.rect.lower],
            "upper": [_bound_to_json(v) for v in subscription.rect.upper],
        },
    }


def subscription_from_json(data: Any, space: AttributeSpace) -> Subscription:
    """Rebuild a subscription serialized by :func:`subscription_to_json`."""
    if not isinstance(data, Mapping):
        raise TraceFormatError(f"subscription must be an object, got {data!r}")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise TraceFormatError(f"subscription needs a non-empty name, got {data!r}")
    if "predicates" in data:
        triples = data["predicates"]
        if not isinstance(triples, Sequence) or isinstance(triples, str):
            raise TraceFormatError(
                f"subscription {name!r}: predicates must be a list")
        predicates = []
        for triple in triples:
            if (not isinstance(triple, Sequence) or isinstance(triple, str)
                    or len(triple) != 3):
                raise TraceFormatError(
                    f"subscription {name!r}: each predicate must be "
                    f"[attribute, operator, value], got {triple!r}")
            attribute, operator, value = triple
            try:
                predicates.append(Predicate(str(attribute), str(operator),
                                            float(value)))
            except (TypeError, ValueError, OverflowError) as exc:
                raise TraceFormatError(
                    f"subscription {name!r}: bad predicate {triple!r}: {exc}"
                ) from exc
        return Subscription(name=name, space=space,
                            predicates=tuple(predicates))
    rect = data.get("rect")
    if not isinstance(rect, Mapping):
        raise TraceFormatError(
            f"subscription {name!r} needs a 'rect' or 'predicates' field")
    lower = rect.get("lower")
    upper = rect.get("upper")
    if (not isinstance(lower, Sequence) or not isinstance(upper, Sequence)
            or len(lower) != len(upper)):
        raise TraceFormatError(
            f"subscription {name!r}: rect needs equal-length lower/upper")
    return subscription_from_rect(
        name, space,
        Rect(tuple(_bound_from_json(v) for v in lower),
             tuple(_bound_from_json(v) for v in upper)),
    )


def event_to_json(event: Event) -> Dict[str, Any]:
    """Serialize a published event."""
    return {"id": event.event_id, "attributes": dict(event.attributes)}


def event_from_json(data: Any) -> Event:
    """Rebuild an event serialized by :func:`event_to_json`."""
    if not isinstance(data, Mapping):
        raise TraceFormatError(f"event must be an object, got {data!r}")
    event_id = data.get("id")
    attributes = data.get("attributes")
    if not isinstance(event_id, str) or not event_id:
        raise TraceFormatError(f"event needs a non-empty id, got {data!r}")
    if not isinstance(attributes, Mapping):
        raise TraceFormatError(f"event {event_id!r} needs an attributes object")
    values = {}
    for name, value in attributes.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TraceFormatError(
                f"event {event_id!r}: attribute {name!r} must be numeric, "
                f"got {value!r}")
        values[str(name)] = number_to_float(
            value, f"event {event_id!r}: attribute {name!r}")
    return Event(values, event_id=event_id)


#: How a facade argument becomes its payload field (the rest are stored
#: as given: ids, the resolved publisher, the ``max_rounds`` budget).
_FIELD_TO_JSON = {
    "subscription": subscription_to_json,
    "subscriptions": lambda subs: [subscription_to_json(sub) for sub in subs],
    "event": event_to_json,
    "stabilize": bool,
    "bulk": lambda bulk: bulk if bulk is None else bool(bulk),
}


def op_payload(op: str, *args: Any) -> Dict[str, Any]:
    """The canonical ``data`` payload of facade call ``op(*args)``.

    ``args`` are the facade method's arguments in :data:`OP_FIELDS` order.
    Trace recording, journaling and the resume gate's divergence check all
    build their payload here, so the three cannot drift apart.
    """
    return {key: _FIELD_TO_JSON[key](value) if key in _FIELD_TO_JSON else value
            for key, value in zip(OP_FIELDS[op], args)}


# --------------------------------------------------------------------------- #
# Records
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class TraceHeader:
    """First record of every trace: format identity and provenance.

    ``backend`` names the broker backend the run used (the first recorded
    system's ``drtree:<engine>`` or baseline name); traces written before
    the unified Broker protocol carry no backend and parse as ``None``.
    """

    scenario: Optional[str] = None
    params: Optional[Dict[str, Any]] = None
    backend: Optional[str] = None
    version: int = TRACE_VERSION

    def to_json(self) -> Dict[str, Any]:
        return {
            "record": "header",
            "format": TRACE_FORMAT,
            "version": self.version,
            "scenario": self.scenario,
            "params": self.params,
            "backend": self.backend,
        }


@dataclass(frozen=True)
class SystemRecord:
    """Creation of one pub/sub system (a trace or journal *segment*).

    ``backend`` is the broker backend name (``drtree:<engine>`` or a
    baseline).  ``batch`` is the legacy boolean of the trace envelope: older
    readers understand it, so :meth:`to_json` always writes it (derived from
    the backend when unset), and version-1 traces without a ``backend``
    field parse to the backend the boolean implies.  ``engine_options`` (the
    typed construction knobs of :class:`~repro.api.spec.SystemSpec`) is the
    version-2 addition: it is serialized only when non-empty, so traces
    without options keep their version-1 bytes.
    """

    seg: int
    space: Tuple[str, ...]
    seed: int
    stabilize_rounds: int
    config: Dict[str, Any] = field(default_factory=dict)
    t: float = 0.0
    backend: Optional[str] = None
    engine_options: Optional[Dict[str, Any]] = None
    batch: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.backend is None:
            object.__setattr__(
                self, "backend",
                "drtree:batched" if self.batch else "drtree:classic")

    @classmethod
    def of(cls, system: "Broker", seg: int) -> "SystemRecord":
        """The record of a live broker, from its :class:`SystemSpec`.

        Any backend that can describe itself as a spec is recordable.
        """
        spec = system.spec
        return cls(
            seg=seg,
            t=float(system.clock()),
            space=tuple(spec.space.names),
            seed=int(spec.seed),
            backend=spec.backend,
            stabilize_rounds=int(spec.stabilize_rounds),
            config=asdict(spec.config) if spec.config is not None else {},
            engine_options=(dict(spec.engine_options)
                            if spec.engine_options else None),
        )

    def to_json(self) -> Dict[str, Any]:
        record = {
            "record": "system",
            "seg": self.seg,
            "t": self.t,
            "space": list(self.space),
            "seed": self.seed,
            # The inverse of __post_init__'s mapping.
            "batch": (self.batch if self.batch is not None
                      else self.backend == "drtree:batched"),
            "backend": self.backend,
            "stabilize_rounds": self.stabilize_rounds,
            "config": dict(self.config),
        }
        if self.engine_options:
            record["engine_options"] = dict(self.engine_options)
        return record


@dataclass(frozen=True)
class OpRecord:
    """One workload decision applied to the system of segment ``seg``.

    ``t`` is the simulated time at which the operation was issued; ``data``
    holds the op-specific payload (see :data:`OP_FIELDS` and
    ``docs/traces.md``).  ``n`` (the dense per-segment op index) and
    ``auto`` (a ``publish`` whose event id the facade assigned from its
    counter) are set only on journaled ops; the trace envelope carries
    neither.
    """

    seg: int
    op: str
    data: Dict[str, Any] = field(default_factory=dict)
    t: float = 0.0
    n: Optional[int] = None
    auto: bool = False

    def __post_init__(self) -> None:
        if self.op not in OP_FIELDS:
            raise TraceFormatError(
                f"unknown trace op {self.op!r}; expected one of {TRACE_OPS}")

    def to_json(self) -> Dict[str, Any]:
        return {"record": "op", "seg": self.seg, "t": self.t, "op": self.op,
                **self.data}


def lowest_version(systems: Iterable[SystemRecord]) -> int:
    """The lowest trace version that can carry ``systems`` (writers emit it,
    so traces without engine options keep their version-1 bytes)."""
    return (TRACE_VERSION_ENGINE_OPTIONS
            if any(system.engine_options for system in systems)
            else TRACE_VERSION)


@dataclass(frozen=True)
class ExpectRecord:
    """The delivery-metrics row observed for segment ``seg`` at record time."""

    seg: int
    row: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {"record": "expect", "seg": self.seg, "row": dict(self.row)}


@dataclass
class Trace:
    """An in-memory trace: header, ordered body, trailing expectations."""

    header: TraceHeader = field(default_factory=TraceHeader)
    body: List[Union[SystemRecord, OpRecord]] = field(default_factory=list)
    expects: List[ExpectRecord] = field(default_factory=list)

    # -- views ---------------------------------------------------------- #

    def systems(self) -> List[SystemRecord]:
        """The segment-creation records, in capture order."""
        return [record for record in self.body
                if isinstance(record, SystemRecord)]

    def ops(self) -> List[OpRecord]:
        """All op records, in capture order."""
        return [record for record in self.body if isinstance(record, OpRecord)]

    def expect_for(self, seg: int) -> Optional[ExpectRecord]:
        """The expectation recorded for segment ``seg``, if any."""
        for expect in self.expects:
            if expect.seg == seg:
                return expect
        return None

    def __len__(self) -> int:
        return len(self.body)

    # -- (de)serialization ---------------------------------------------- #

    def to_dicts(self) -> List[Dict[str, Any]]:
        """The trace as a list of JSON-ready record dictionaries."""
        records = [self.header.to_json()]
        records.extend(record.to_json() for record in self.body)
        records.extend(expect.to_json() for expect in self.expects)
        return records

    @classmethod
    def from_dicts(cls, records: Sequence[Mapping[str, Any]],
                   lines: Optional[Sequence[int]] = None) -> "Trace":
        """Validate and rebuild a trace from record dictionaries.

        The inverse of :meth:`to_dicts`.  Raises
        :class:`~repro.traces.errors.TraceFormatError` on any structural
        problem.  ``lines`` optionally maps each record to its physical line
        number in the source file (the reader passes it so diagnostics stay
        correct around blank lines); without it, one record per line with
        the header on line 1 is assumed.
        """
        if not records:
            raise TraceFormatError("empty trace: expected a header record")
        if lines is None:
            lines = range(1, len(records) + 1)
        header = _parse_trace_header(records[0], lines[0])
        trace = cls(header=header)
        segments: set = set()
        for raw, index in zip(records[1:], lines[1:]):
            if not isinstance(raw, Mapping):
                raise TraceFormatError(
                    f"expected a record object, got {raw!r}", line=index)
            kind = raw.get("record")
            if kind == "system":
                record = parse_system(raw, index)
                if record.seg in segments:
                    raise TraceFormatError(
                        f"duplicate system record for segment {record.seg}",
                        line=index)
                segments.add(record.seg)
                trace.body.append(record)
            elif kind == "op":
                record = parse_op(raw, index)
                if record.seg not in segments:
                    raise TraceFormatError(
                        f"op {record.op!r} references segment {record.seg} "
                        "before its system record", line=index)
                trace.body.append(record)
            elif kind == "expect":
                expect = _parse_expect(raw, index)
                if expect.seg not in segments:
                    raise TraceFormatError(
                        f"expect record references unknown segment "
                        f"{expect.seg}", line=index)
                trace.expects.append(expect)
            elif kind == "header":
                raise TraceFormatError("duplicate header record", line=index)
            else:
                raise TraceFormatError(
                    f"unknown record type {kind!r}", line=index)
        return trace


# --------------------------------------------------------------------------- #
# Record parsers (all failures -> the envelope's format error)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Envelope:
    """The on-disk form header/system/op records are read from.

    Both logs hold the same records; what differs is what surrounds them,
    and which error a malformed record raises.
    """

    #: ``"trace"`` or ``"journal"``, for diagnostics.
    noun: str
    #: The format error raised on any structural problem.
    error: type
    #: The field naming the record kind.
    kind_key: str
    #: The format identity headers must carry, and the versions understood.
    format: str
    versions: Tuple[int, ...]
    #: Whether system records carry the legacy ``batch`` flag (and may
    #: therefore omit ``backend``); otherwise they must name their backend.
    legacy_batch: bool = False
    #: Envelope-only op-record fields besides kind/seg/t/op: the journal's
    #: ``n`` and ``auto`` (parsed when listed) and its chain fields.
    op_extras: Tuple[str, ...] = ()


#: The trace envelope (the journal's is :data:`repro.journal.records.JOURNAL`).
TRACE = Envelope(noun="trace", error=TraceFormatError, kind_key="record",
                 format=TRACE_FORMAT, versions=TRACE_VERSIONS,
                 legacy_batch=True)

_MISSING = object()


def _require(raw: Mapping[str, Any], key: str, types: tuple, line: int,
             context: str, error: type = TraceFormatError) -> Any:
    value = raw.get(key, _MISSING)
    if value is _MISSING:
        raise error(f"{context} record is missing {key!r}", line=line)
    if bool in types:
        if not isinstance(value, bool):
            raise error(
                f"{context} record field {key!r} must be a boolean, "
                f"got {value!r}", line=line)
        return value
    if isinstance(value, bool) or not isinstance(value, types):
        expected = "/".join(t.__name__ for t in types)
        raise error(
            f"{context} record field {key!r} must be {expected}, "
            f"got {value!r}", line=line)
    return value


def _optional(raw: Mapping[str, Any], key: str, kind: type, what: str,
              context: str, line: int, error: type) -> Any:
    value = raw.get(key)
    if value is not None and not isinstance(value, kind):
        raise error(f"{context} {key} must be {what}, got {value!r}",
                    line=line)
    return value


def parse_header(raw: Mapping[str, Any], line: int = 1,
                 fmt: Envelope = TRACE
                 ) -> Tuple[int, Optional[str], Optional[Dict[str, Any]]]:
    """Check a header's identity; returns ``(version, scenario, params)``."""
    if not isinstance(raw, Mapping) or raw.get(fmt.kind_key) != "header":
        raise fmt.error(
            f"first record must be the {fmt.noun} header, got {raw!r}",
            line=line)
    if raw.get("format") != fmt.format:
        raise fmt.error(
            f"not a {fmt.format} file (format={raw.get('format')!r})",
            line=line)
    version = raw.get("version")
    if version not in fmt.versions:
        raise fmt.error(
            f"unsupported {fmt.noun} version {version!r}; this reader "
            f"understands versions {fmt.versions}", line=line)
    scenario = _optional(raw, "scenario", str, "a string or null", "header",
                         line, fmt.error)
    params = _optional(raw, "params", Mapping, "an object or null", "header",
                       line, fmt.error)
    return version, scenario, dict(params) if params is not None else None


def _parse_trace_header(raw: Mapping[str, Any], line: int) -> TraceHeader:
    version, scenario, params = parse_header(raw, line)
    return TraceHeader(
        scenario=scenario, params=params, version=version,
        backend=_optional(raw, "backend", str, "a string or null", "header",
                          line, TraceFormatError))


def parse_system(raw: Mapping[str, Any], line: int,
                 fmt: Envelope = TRACE) -> SystemRecord:
    error = fmt.error
    space = _require(raw, "space", (list, tuple), line, "system", error)
    if not space or not all(isinstance(name, str) for name in space):
        raise error(
            f"system record space must be a non-empty list of attribute "
            f"names, got {space!r}", line=line)
    config = raw.get("config", {})
    if not isinstance(config, Mapping):
        raise error(
            f"system record config must be an object, got {config!r}",
            line=line)
    engine_options = _optional(raw, "engine_options", Mapping,
                               "an object or null", "system record", line,
                               error)
    if fmt.legacy_batch:
        backend = _optional(raw, "backend", str, "a string", "system record",
                            line, error)
        batch = _require(raw, "batch", (bool,), line, "system", error)
    else:
        backend = _require(raw, "backend", (str,), line, "system", error)
        batch = None
    return SystemRecord(
        seg=_require(raw, "seg", (int,), line, "system", error),
        t=number_to_float(_require(raw, "t", (int, float), line, "system",
                                   error), "system record field 't'", error,
                          line),
        space=tuple(space),
        seed=_require(raw, "seed", (int,), line, "system", error),
        batch=batch,
        backend=backend,
        stabilize_rounds=_require(raw, "stabilize_rounds", (int,), line,
                                  "system", error),
        config=dict(config),
        engine_options=(dict(engine_options)
                        if engine_options is not None else None),
    )


def parse_op(raw: Mapping[str, Any], line: int,
             fmt: Envelope = TRACE) -> OpRecord:
    error = fmt.error
    op = _require(raw, "op", (str,), line, "op", error)
    if op not in OP_FIELDS:
        raise error(
            f"unknown {fmt.noun} op {op!r}; expected one of {TRACE_OPS}",
            line=line)
    envelope = (fmt.kind_key, "seg", "t", "op", *fmt.op_extras)
    data = {key: value for key, value in raw.items() if key not in envelope}
    # Checked at parse time so replay never trips over a KeyError
    # mid-simulation.
    missing = set(OP_FIELDS[op]) - set(data)
    if missing:
        raise error(f"op {op!r} is missing fields {sorted(missing)}",
                    line=line)
    auto = raw.get("auto", False) if "auto" in fmt.op_extras else False
    if not isinstance(auto, bool):
        raise error(
            f"op record field 'auto' must be a boolean, got {auto!r}",
            line=line)
    return OpRecord(
        seg=_require(raw, "seg", (int,), line, "op", error),
        n=(_require(raw, "n", (int,), line, "op", error)
           if "n" in fmt.op_extras else None),
        t=number_to_float(_require(raw, "t", (int, float), line, "op", error),
                          "op record field 't'", error, line),
        op=op,
        data=data,
        auto=auto,
    )


def _parse_expect(raw: Mapping[str, Any], line: int) -> ExpectRecord:
    row = _require(raw, "row", (dict,), line, "expect")
    return ExpectRecord(seg=_require(raw, "seg", (int,), line, "expect"),
                        row=dict(row))
