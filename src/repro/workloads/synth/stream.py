"""Lazy emission of synthesized workloads as replayable op streams.

:func:`iter_ops` is the heart of the subsystem: a generator that yields
the trace :class:`~repro.traces.format.OpRecord` sequence of a
:class:`~repro.workloads.synth.spec.SyntheticWorkload` **lazily** — memory
stays ``O(subscribers)`` no matter how many events the spec asks for, so a
million-op campaign streams through a constant-size working set.  Every
consumer — trace files, journals, live brokers, the ``--workload``
scenarios — draws from this one generator, which is what makes the op
stream byte-identical across backends and processes.

Stage isolation: each generator stage draws from its own named RNG stream
(:data:`SYNTH_STREAMS`), so toggling one stage (say, adding flash crowds)
cannot perturb another stage's draws (the event attributes stay identical).
The stream names are part of the determinism contract and are pinned by
the regression tests.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

# Shared with the backend matrix and the trace replay's digest-verification
# fallback; re-exported here so existing imports keep working.
from repro.analysis.digests import delivered_digest, stream_signature  # noqa: F401
from repro.sim.rng import RandomStreams
from repro.spatial.filters import (Event, Subscription, make_space,
                                   subscription_from_rect)
from repro.spatial.rectangle import Rect
from repro.traces.format import (OpRecord, SystemRecord, TraceHeader,
                                 event_from_json, op_payload)
from repro.traces.io import dump_record
from repro.workloads.subscriptions import (SubscriptionWorkload,
                                           WORKLOAD_GENERATORS)
from repro.workloads.synth.spec import SYNTH_SCENARIO, SyntheticWorkload
from repro.workloads.synth.stages import (bounded_walk, clip01,
                                          correlated_point, diurnal_counts,
                                          flash_windows, uniform_point,
                                          zipf_cumulative, zipf_rank)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.broker import Broker

#: The named RNG streams the generator stages draw from, pinned as part of
#: the determinism contract (same seed ⇒ byte-identical stream, and no
#: stage's draws bleed into another's).
SYNTH_STREAMS = (
    "workload.synth.topics",
    "workload.synth.points",
    "workload.synth.flash",
    "workload.synth.mobility",
    "workload.synth.publishers",
)

#: Event-id prefix of synthesized publications.
EVENT_PREFIX = "synth-"

#: Stabilization budget synthesized segments are built with.
SYNTH_STABILIZE_ROUNDS = 30


def base_population(spec: SyntheticWorkload) -> SubscriptionWorkload:
    """The spec's base subscriber population (its own family's streams)."""
    generator = WORKLOAD_GENERATORS[spec.subscription_family]
    kwargs: Dict[str, Any] = {"seed": spec.seed,
                              "dimensions": spec.dimensions}
    if spec.subscription_family == "clustered":
        # The clusters ARE the regional hot-spots: hot traffic then targets
        # subscribed regions rather than empty space.
        kwargs["clusters"] = spec.hotspots
    return generator(spec.subscribers, **kwargs)


def hotspot_centres(spec: SyntheticWorkload,
                    population: SubscriptionWorkload) -> List[List[float]]:
    """Hot-spot centres, pinned to subscribed regions and rank-sorted.

    The centres of the first ``hotspots`` base subscriptions (fewer when
    the population is smaller), sorted by coordinates so the centre ↔ Zipf
    rank mapping is a pure function of the centres' positions — the same
    convention :func:`repro.workloads.events.zipf_events` uses.
    """
    chosen = population.subscriptions[:spec.hotspots]
    centres = [[clip01(coord) for coord in sub.rect.center.coords]
               for sub in chosen]
    centres.sort()
    return centres


def iter_ops(spec: SyntheticWorkload) -> Iterator[OpRecord]:
    """Lazily yield the spec's op stream (single segment, ``seg=0``).

    Layout: one bulk ``subscribe_all`` at ``t=0``, then per time bin —
    flash-crowd joins (plus one ``stabilize``), mobility ``move`` waves,
    the bin's diurnal share of publications, and flash-crowd leaves.
    Every flash join is balanced by exactly one leave before the stream
    ends.
    """
    streams = RandomStreams(spec.seed)
    topics = streams.stream("workload.synth.topics")
    points = streams.stream("workload.synth.points")
    flash = streams.stream("workload.synth.flash")
    mobility = streams.stream("workload.synth.mobility")
    publishers = streams.stream("workload.synth.publishers")

    population = base_population(spec)
    names = list(spec.space_names)
    space = make_space(*names)

    def op(t: float, name: str, *args: Any) -> OpRecord:
        # Payloads come from the one schema the facade's op log writes with.
        return OpRecord(seg=0, t=t, op=name, data=op_payload(name, *args))

    def filter_of(name: str, lower: Any, upper: Any) -> Subscription:
        return subscription_from_rect(name, space,
                                      Rect(tuple(lower), tuple(upper)))

    centres = hotspot_centres(spec, population)
    cumulative = zipf_cumulative(len(centres), spec.exponent)
    counts = diurnal_counts(spec.events, spec.bins, spec.amplitude)
    bin_width = spec.period / spec.bins

    # -- flash crowds: windows, target hot-spots and member rectangles,
    # all drawn up front from the flash stream alone ---------------------- #
    windows = flash_windows(flash, spec.flash_crowds, spec.bins)
    joins_at: Dict[int, List[Subscription]] = {}
    leaves_at: Dict[int, List[str]] = {}
    for crowd, (start, end) in enumerate(windows):
        centre = centres[zipf_rank(flash, cumulative)]
        members = []
        for member in range(spec.crowd_size):
            coords = correlated_point(flash, centre, spec.crowd_spread, 0.0)
            half = spec.crowd_spread / 2.0
            members.append(filter_of(f"flash{crowd}_{member}",
                                     [clip01(c - half) for c in coords],
                                     [clip01(c + half) for c in coords]))
        joins_at.setdefault(start, []).extend(members)
        leaves_at.setdefault(end, []).extend(m.name for m in members)

    # -- mobility: which base subscribers walk ---------------------------- #
    walkers: List[Dict[str, Any]] = []
    if spec.walkers:
        chosen = mobility.sample(range(len(population.subscriptions)),
                                 spec.walkers)
        for index in sorted(chosen):
            sub = population.subscriptions[index]
            walkers.append({
                "name": sub.name,
                "lower": list(sub.rect.lower),
                "upper": list(sub.rect.upper),
                "moves": 0,
            })

    # -- live peer ids (publishers must exist when their op applies) ------ #
    live = [sub.name for sub in population.subscriptions]
    index_of = {name: i for i, name in enumerate(live)}

    def add_live(name: str) -> None:
        index_of[name] = len(live)
        live.append(name)

    def drop_live(name: str) -> None:
        index = index_of.pop(name)
        last = live.pop()
        if last != name:
            live[index] = last
            index_of[last] = index

    yield op(0.0, "subscribe_all", population, True, None)

    published = 0
    for bin_index in range(spec.bins):
        t = round(bin_index * bin_width, 6)

        joining = joins_at.get(bin_index, ())
        for member in joining:
            yield op(t, "subscribe", member, False)
            add_live(member.name)
        if joining:
            yield op(t, "stabilize", SYNTH_STABILIZE_ROUNDS)

        if walkers and spec.move_every and bin_index \
                and bin_index % spec.move_every == 0:
            for walker in walkers:
                walker["lower"], walker["upper"] = bounded_walk(
                    mobility, walker["lower"], walker["upper"], spec.step)
                walker["moves"] += 1
                old_name = walker["name"]
                new_name = f"{old_name}~m{walker['moves']}"
                yield op(t, "move", old_name,
                         filter_of(new_name, walker["lower"], walker["upper"]),
                         True)
                drop_live(old_name)
                add_live(new_name)
                walker["name"] = new_name

        for _ in range(counts[bin_index]):
            if topics.random() < spec.hot_fraction:
                centre = centres[zipf_rank(topics, cumulative)]
                coords = correlated_point(points, centre, spec.spread,
                                          spec.correlation)
            else:
                coords = uniform_point(points, spec.dimensions)
            event = Event(dict(zip(names, coords)),
                          event_id=f"{EVENT_PREFIX}{published}")
            published += 1
            yield op(t, "publish", event,
                     live[publishers.randrange(len(live))])

        for name in leaves_at.get(bin_index + 1, ()):
            yield op(round((bin_index + 1) * bin_width, 6), "unsubscribe",
                     name)
            drop_live(name)


def iter_events(spec: SyntheticWorkload) -> Iterator[Event]:
    """Just the published events of the stream (for publish-only drivers).

    Drawn through the full generator, so the attributes are exactly those
    of the corresponding trace — membership dynamics (flash crowds,
    mobility) shape the op stream but never the event draws.
    """
    for op in iter_ops(spec):
        if op.op == "publish":
            yield event_from_json(op.data["event"])


def trace_header(spec: SyntheticWorkload,
                 backend: str = "drtree:classic") -> TraceHeader:
    """The v2 trace header with the spec embedded in its params."""
    return TraceHeader(scenario=SYNTH_SCENARIO,
                       params={"workload": spec.to_json()},
                       backend=backend,
                       version=2)


def system_record(spec: SyntheticWorkload,
                  backend: str = "drtree:classic") -> SystemRecord:
    """The single segment's system record."""
    return SystemRecord(seg=0, t=0.0, space=spec.space_names,
                        seed=spec.seed, backend=backend,
                        stabilize_rounds=SYNTH_STABILIZE_ROUNDS, config={})


def iter_records(spec: SyntheticWorkload,
                 backend: str = "drtree:classic"
                 ) -> Iterator[Dict[str, Any]]:
    """Header, system record and op records as JSON-ready dicts, lazily."""
    from repro.api.registry import normalize_backend

    backend = normalize_backend(backend)
    yield trace_header(spec, backend).to_json()
    yield system_record(spec, backend).to_json()
    for op in iter_ops(spec):
        yield op.to_json()


@dataclass(frozen=True)
class SynthReport:
    """What a streaming writer produced."""

    path: str
    records: int
    ops: int
    bytes: int


def write_synth_trace(path: Any, spec: SyntheticWorkload,
                      backend: str = "drtree:classic") -> SynthReport:
    """Stream the spec's op stream into a v2 trace file at ``path``.

    One record is in memory at a time; a million-op campaign writes in
    constant space.  The file replays with ``repro run --trace PATH`` on
    any backend.
    """
    records = ops = total = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in iter_records(spec, backend):
            line = dump_record(record) + "\n"
            handle.write(line)
            records += 1
            ops += record.get("record") == "op"
            total += len(line.encode("utf-8"))
    return SynthReport(path=str(path), records=records, ops=ops, bytes=total)


def write_synth_journal(path: Any, spec: SyntheticWorkload,
                        backend: str = "drtree:classic",
                        fsync_every: int = 256) -> SynthReport:
    """Stream the spec's op stream into a durable hash-chained journal.

    The journal is written through :class:`repro.journal.io.JournalWriter`
    — every line survives a ``SIGKILL`` of the writer — and left unsealed
    (it captures a workload, not a completed run, so it has no final
    metrics rows).  ``repro journal verify`` audits it and
    ``repro journal export`` lowers it to a replayable trace.
    """
    from repro.api.registry import normalize_backend
    from repro.journal.io import JournalWriter
    from repro.journal.records import (JournalHeader, op_to_json,
                                       system_to_json)

    backend = normalize_backend(backend)
    ops = 0
    with JournalWriter(path, fsync_every=fsync_every) as writer:
        writer.append(JournalHeader(scenario=SYNTH_SCENARIO,
                                    params={"workload": spec.to_json()},
                                    snapshot_every=0).to_json())
        writer.append(system_to_json(system_record(spec, backend)))
        for op in iter_ops(spec):
            writer.append(op_to_json(replace(op, n=ops)))
            ops += 1
        records = writer.records_written
    return SynthReport(path=str(path), records=records, ops=ops,
                       bytes=os.path.getsize(path))


def run_workload(spec: SyntheticWorkload,
                 backend: str = "drtree:classic",
                 config: Optional[Any] = None) -> "Broker":
    """Build a broker and stream the spec's ops through its facade.

    Every mutation goes through the pub/sub facade, so a run inside a
    ``recording()`` or ``journaling()`` context is captured op by op.
    """
    from repro.api.registry import normalize_backend
    from repro.api.spec import SystemSpec
    from repro.traces.replay import apply_op

    broker = SystemSpec(space=make_space(*spec.space_names),
                        backend=normalize_backend(backend),
                        config=config,
                        seed=spec.seed,
                        stabilize_rounds=SYNTH_STABILIZE_ROUNDS).build()
    for op in iter_ops(spec):
        apply_op(broker, op)
    return broker


