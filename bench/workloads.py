"""The six workloads and the load model they share.

Load model: closed loop, one client thread; the only other processes and
threads are the system's own (two shard workers, the ``drtree:net`` loop
thread).  Every workload drives the public ``Broker`` protocol of
``repro.api`` and nothing below it.  ``--seed`` feeds the ``repro.workloads``
generators and the benchmark's own victim draws; the system under test only
ever sees the generated inputs.

Op counts are a fixed function of ``--seconds`` (sized so that the measured
phase takes about that long at the commit that defined the benchmark), not a
deadline: the same ``(seed, seconds)`` always issues the same ops, so the
simulated statistics and the delivered digest repeat exactly and two commits
can be compared on them.
"""

from __future__ import annotations

import ctypes
import fcntl
import gc
import os
import random
import resource
import shutil
import socket
import statistics
import struct
import sys
import time
from collections import defaultdict
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.digests import delivered_digest
from repro.api import SystemSpec
from repro.workloads.events import targeted_events
from repro.workloads.subscriptions import uniform_subscriptions

from bench.calibrate import host_factor
from bench.check import Membership, Reference, audit

#: Where run artefacts (traces, temporary journals) go; git-ignored.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Probe publishes issued after every membership op of ``churn-repair``.
PROBES_PER_OP = 5
#: Probe publishes on the last broker of ``bulk-build``.
BULK_PROBES = 10


@dataclass(frozen=True)
class Scale:
    """Population sizes and chunking; op counts come from ``--seconds``."""

    publish_peers: int
    churn_peers: int
    bulk_peers: int
    net_peers: int
    synth_subscribers: int
    #: Events per rate chunk (a rate is ops in a chunk / median chunk time).
    chunk: int
    #: Untimed warm-up ops before the measured phase.
    warmup: int
    #: Set-ups per untraced run; ``setup_s`` reports their median.
    setups: int
    #: Share of the ``--seconds`` op budget this scale issues.
    budget: float
    #: Calls per batch of the direct spatial probes.
    probe_calls: int


SCALES = {
    "full": Scale(publish_peers=5000, churn_peers=1500, bulk_peers=40000,
                  net_peers=1000, synth_subscribers=1000, chunk=50,
                  warmup=20, setups=3, budget=1.0, probe_calls=20_000),
    # The smoke test's size: every code path, a few hundred milliseconds.
    # Populations stay above repro.overlay.bootstrap.BULK_THRESHOLD (512)
    # so that set-up takes the bulk-load path as it does at full size.
    "tiny": Scale(publish_peers=520, churn_peers=520, bulk_peers=520,
                  net_peers=520, synth_subscribers=520, chunk=10, warmup=4,
                  setups=1, budget=0.02, probe_calls=1_000),
}


class Recorder:
    """Per-op wall times, host-speed calibrations and failure counts."""

    def __init__(self, budget_s: float, span: Callable[[str], Any]) -> None:
        self.budget_s = budget_s
        self.deadline = float("inf")
        #: ``span(name)`` is a context manager: a tracer span, or nothing.
        self.span = span
        #: kind -> (wall seconds, calibrations taken before the sample).
        #: Kinds are the facade ops plus ``"chunk"`` (a rate chunk).
        self.samples: Dict[str, List[Tuple[float, int]]] = defaultdict(list)
        #: The host factor at every calibration point, in order.
        self.factors: List[float] = []
        self.attempted = 0
        #: Ops the hard timeout kept from being issued (they count as failed).
        self.abandoned = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Kind of every measured op, in issue order.
        self.kinds: List[str] = []
        #: 1-based index into ``kinds`` of the op in flight, 0 between ops;
        #: the tracer stamps it on every span.
        self.op_id = 0
        #: (membership at publish time, event, outcome or None).
        self.published: List[Tuple[Membership, Any, Any]] = []

    def start(self) -> None:
        self.deadline = time.perf_counter() + self.budget_s
        self.calibrate()

    def calibrate(self) -> None:
        """Take a calibration point; samples between two points are scaled
        by the mean of the two (see :mod:`bench.calibrate`)."""
        self.factors.append(host_factor())

    def expired(self) -> bool:
        return time.perf_counter() > self.deadline

    def abandon(self, remaining: int) -> None:
        """The hard timeout hit: the ops not yet issued count as failed."""
        self.abandoned += remaining
        self.fail(f"timeout after {self.budget_s:.0f}s: "
                  f"{remaining} ops not issued", count=remaining)

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(problem)

    def timed(self, kind: str, call: Callable[..., Any], *args: Any) -> Any:
        """Run one op, record its wall time; a raise is a failed op."""
        self.kinds.append(kind)
        self.op_id = self.attempted = len(self.kinds)
        result = None
        begin = time.perf_counter()
        try:
            result = call(*args)
        except Exception as exc:  # noqa: BLE001 - the run must report
            self.fail(f"{kind} raised {exc!r}")
        self.sample(kind, time.perf_counter() - begin)
        self.op_id = 0
        return result

    def sample(self, kind: str, seconds: float) -> None:
        self.samples[kind].append((seconds, len(self.factors)))

    def raw(self, kind: str) -> List[float]:
        """Wall seconds of every sample of ``kind``."""
        return [seconds for seconds, _ in self.samples[kind]]

    def calibrated(self, kind: str) -> List[float]:
        """The samples of ``kind`` in seconds of the nominal host."""
        factors = self.factors
        return [seconds * 2.0 / (factors[taken - 1] + factors[taken])
                for seconds, taken in self.samples[kind]]

    def publish_chunks(self, publish: Callable[[Any], Any],
                       events: Sequence[Any], membership: Membership,
                       chunk: int) -> None:
        """The publish loop shared by four workloads, timed chunk by chunk."""
        for start in range(0, len(events), chunk):
            if self.expired():
                self.abandon(len(events) - start)
                return
            begin = time.perf_counter()
            for event in events[start:start + chunk]:
                outcome = self.timed("publish", publish, event)
                self.published.append((membership, event, outcome))
            self.sample("chunk", time.perf_counter() - begin)
            self.calibrate()


@dataclass
class Built:
    """What one set-up hands to the measured phase."""

    broker: Any
    inputs: Any
    #: The loaded population (the benchmark's own copy, see bench.check).
    subscriptions: List[Any]
    #: Closes everything the set-up opened, in reverse order.
    stack: ExitStack = field(default_factory=ExitStack)
    extra: Dict[str, Any] = field(default_factory=dict)
    reference: Reference = field(init=False)

    def __post_init__(self) -> None:
        self.reference = Reference(self.subscriptions)


class Workload:
    """Base of the six workloads: generate, build, measure, finish, close."""

    name = ""
    backend = "drtree:batched"
    engine_options: Optional[Dict[str, Any]] = None
    #: Whether the backend's message counts repeat exactly (drtree:net's
    #: delivered sets do, its counters carry real-time traffic).
    counts_repeat = True

    def __init__(self, scale: Scale, seconds: int) -> None:
        self.scale = scale
        #: The op budget, in seconds of measured phase at the defining commit.
        self.seconds = seconds * scale.budget

    # -- the five steps -------------------------------------------------- #

    def prepare(self) -> None:
        """Bring the host into the state every run of this workload starts
        from; called once per pass, before anything is timed."""

    def generate(self, seed: int) -> Any:
        raise NotImplementedError

    def build(self, inputs: Any) -> Built:
        raise NotImplementedError

    def measure(self, built: Built, rec: Recorder) -> None:
        raise NotImplementedError

    def chunk_times(self, rec: Recorder) -> List[float]:
        """Calibrated seconds of every rate chunk."""
        return rec.calibrated("chunk")

    def ops_per_chunk(self) -> int:
        """Ops in a chunk: the rate is this / the median chunk time."""
        return self.scale.chunk

    def finish(self, built: Built, rec: Recorder) -> Dict[str, Any]:
        """Check the outputs of the measured phase; returns the run's facts."""
        broker = built.broker
        report = broker.stabilize()
        summary = broker.summary()
        for problem in audit(broker.space.names, rec.published):
            rec.fail(problem)
        checks = {
            "legal_after_stabilize": bool(report.is_legal),
            "delivery_rate_is_1": summary["delivery_rate"] == 1.0,
        }
        counters = broker.simulation.metrics.counters()
        return {
            "checks": checks,
            "digest": delivered_digest(broker),
            "simulated": {
                "events": int(summary["events"]),
                "msgs_per_event": summary["mean_messages_per_event"],
                "false_positive_rate": summary["false_positive_rate"],
                "false_negatives": int(summary["false_negatives"]),
                "messages_by_type": {
                    name.rsplit(".", 1)[1]: int(value)
                    for name, value in sorted(counters.items())
                    if name.startswith("network.messages.")},
            },
        }

    def close(self, built: Built) -> None:
        try:
            if built.broker is not None:
                built.broker.close()
        finally:
            built.stack.close()

    # -- helpers --------------------------------------------------------- #

    def spec(self, space: Any, seed: int, **overrides: Any) -> SystemSpec:
        return SystemSpec(space, backend=self.backend, seed=seed,
                          engine_options=self.engine_options, **overrides)


class PublishWorkload(Workload):
    """A bulk-loaded uniform population and a targeted event stream."""

    #: Measured events per second of ``--seconds``.
    events_per_second = 50

    def peers(self) -> int:
        return self.scale.publish_peers

    def chunks(self) -> int:
        return max(2, round(self.seconds * self.events_per_second
                            / self.scale.chunk))

    def generate(self, seed: int) -> Any:
        population = uniform_subscriptions(self.peers(), seed=seed)
        subscriptions = list(population)
        count = self.scale.warmup + self.chunks() * self.scale.chunk
        events = targeted_events(population.space, subscriptions, count,
                                 seed=seed + 7)
        return seed, population.space, subscriptions, events

    def build(self, inputs: Any) -> Built:
        seed, space, subscriptions, _ = inputs
        broker = self.spec(space, seed).build()
        broker.subscribe_all(subscriptions)
        return Built(broker, inputs, subscriptions)

    def measure(self, built: Built, rec: Recorder) -> None:
        events = built.inputs[3]
        publish = built.broker.publish
        for event in events[:self.scale.warmup]:
            publish(event)
        rec.publish_chunks(publish, events[self.scale.warmup:],
                           built.reference.snapshot(), self.scale.chunk)


class SteadyPublish(PublishWorkload):
    name = "steady-publish"


class ShardedShm(PublishWorkload):
    """The same inputs as ``steady-publish`` across two shm shard workers."""

    name = "sharded-shm"
    backend = "drtree:sharded"
    engine_options = {"shards": 2, "transport": "shm"}

    def finish(self, built: Built, rec: Recorder) -> Dict[str, Any]:
        facts = super().finish(built, rec)
        built.extra["shard_report"] = built.broker.simulation.shard_report()
        return facts


def private_loopback() -> None:
    """Move the calling thread, and every thread it starts from now on, into
    a fresh network namespace whose only interface is a loopback that is up.
    """
    CLONE_NEWNET = 0x40000000
    SIOCGIFFLAGS, SIOCSIFFLAGS, IFF_UP = 0x8913, 0x8914, 0x1
    if ctypes.CDLL(None, use_errno=True).unshare(CLONE_NEWNET) != 0:
        raise OSError(ctypes.get_errno(), "unshare(CLONE_NEWNET)")
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as control:
        request = struct.pack("16sH14s", b"lo", 0, b"")
        flags = struct.unpack(
            "16sH14s", fcntl.ioctl(control, SIOCGIFFLAGS, request))[1]
        fcntl.ioctl(control, SIOCSIFFLAGS,
                    struct.pack("16sH14s", b"lo", flags | IFF_UP, b""))


class NetLoopback(PublishWorkload):
    """Real loopback TCP; background stabilizers off (the issue measured
    identical code at 101-136 events/s with them on, 149-169 with them off)."""

    name = "net-loopback"
    backend = "drtree:net"
    engine_options = {"stabilizer": "off"}
    counts_repeat = False
    events_per_second = 150

    def peers(self) -> int:
        return self.scale.net_peers

    def prepare(self) -> None:
        # Every broker this workload closes leaves one socket per peer in
        # TIME_WAIT for a minute, in the kernel and so across runs, and
        # bind(port 0) with SO_REUSEADDR (asyncio's default) slows from
        # 0.08 ms to 2 ms once a few thousand have piled up: the same
        # set-up read 0.75 s or 1.7 s depending on how many runs the last
        # minute had seen.  A namespace of its own gives each pass an empty
        # socket table, and keeps the run's traffic off the host's loopback.
        try:
            private_loopback()
        except OSError as exc:
            print(f"bench: no private network namespace ({exc}); set-up time "
                  "will depend on the sockets earlier runs left in TIME_WAIT",
                  file=sys.stderr)


class ChurnRepair(Workload):
    """Cycles of subscribe, unsubscribe, fail, move, each followed by probes.

    Victims are drawn from fixed strata of filter area, not uniformly.  The
    DR-tree elects the member with the largest MBR as parent, so a
    large-filter subscriber is an interior node whose controlled departure
    takes four stabilization rounds where a leaf's takes one.  Uniform draws
    made the number of interior departures per run binomial: the median cycle
    was 8 to 11 rounds depending on the seed (a 21-32 % inter-quartile spread
    from the inputs alone, same code).  With one departure from the
    largest 5 %, one crash from the middle and one move from the smaller
    half, every seed's median cycle is the same 11 rounds and what is left
    is host time.
    """

    name = "churn-repair"
    CYCLE = ("subscribe", "unsubscribe", "fail", "move_subscription")

    def cycles(self) -> int:
        return max(2, round(0.9 * self.seconds))

    def generate(self, seed: int) -> Any:
        cycles = self.cycles()
        population = uniform_subscriptions(self.scale.churn_peers, seed=seed)
        subscriptions = list(population)
        joiners = list(uniform_subscriptions(2 * cycles, seed=seed + 1,
                                             prefix="J"))
        probes = targeted_events(
            population.space, subscriptions,
            self.scale.warmup + cycles * len(self.CYCLE) * PROBES_PER_OP,
            seed=seed + 7, prefix="p")
        ranked = sorted(subscriptions,
                        key=lambda sub: (-sub.rect.area(), sub.name))
        large = len(ranked) // 20
        half = len(ranked) // 2
        draw = random.Random(seed)
        victims = list(zip(
            draw.sample([sub.name for sub in ranked[:large]], cycles),
            draw.sample([sub.name for sub in ranked[large:half]], cycles),
            draw.sample([sub.name for sub in ranked[half:]], cycles)))
        return seed, population.space, subscriptions, joiners, probes, victims

    def build(self, inputs: Any) -> Built:
        seed, space, subscriptions = inputs[:3]
        broker = self.spec(space, seed).build()
        broker.subscribe_all(subscriptions)
        return Built(broker, inputs, subscriptions)

    def measure(self, built: Built, rec: Recorder) -> None:
        _, _, _, joiners, probes, victims = built.inputs
        broker, reference = built.broker, built.reference
        for event in probes[:self.scale.warmup]:
            broker.publish(event)
        probes = iter(probes[self.scale.warmup:])

        def probe() -> None:
            membership = reference.snapshot()
            for _ in range(PROBES_PER_OP):
                event = next(probes)
                outcome = rec.timed("publish", broker.publish, event)
                rec.published.append((membership, event, outcome))
            rec.calibrate()

        for cycle, (leaver, crasher, mover) in enumerate(victims):
            if rec.expired():
                rec.abandon((len(victims) - cycle) * len(self.CYCLE)
                            * (1 + PROBES_PER_OP))
                return
            joiner, moved = joiners[2 * cycle], joiners[2 * cycle + 1]
            steps = (
                ("subscribe", (joiner,), (joiner,), ()),
                ("unsubscribe", (leaver,), (), (leaver,)),
                ("fail", (crasher,), (), (crasher,)),
                ("move_subscription", (mover, moved), (moved,), (mover,)),
            )
            for kind, args, added, removed in steps:
                failed = rec.failed
                rec.timed(kind, getattr(broker, kind), *args)
                rec.calibrate()
                if rec.failed == failed:
                    for subscription in added:
                        reference.add(subscription)
                    for name in removed:
                        reference.remove(name)
                probe()

    def chunk_times(self, rec: Recorder) -> List[float]:
        # A cycle is its four membership ops; the probes are not in it.
        return [sum(cycle) for cycle in zip(
            *(rec.calibrated(kind) for kind in self.CYCLE))]

    def ops_per_chunk(self) -> int:
        return len(self.CYCLE)


class BulkBuild(Workload):
    """Fresh brokers in sequence, each bulk-loading the whole population."""

    name = "bulk-build"

    def builds(self) -> int:
        # Three at the default --seconds: the median then drops one build
        # that a slow stretch of the host hit, where the mean of two kept it.
        return max(2, round(self.seconds / 3.3))

    def generate(self, seed: int) -> Any:
        population = uniform_subscriptions(self.scale.bulk_peers, seed=seed)
        subscriptions = list(population)
        probes = targeted_events(population.space, subscriptions,
                                 BULK_PROBES, seed=seed + 7, prefix="p")
        return seed, population.space, subscriptions, probes

    def build(self, inputs: Any) -> Built:
        seed, space, subscriptions, _ = inputs
        # The load is this workload's measured op, so set-up stops at an
        # empty broker.
        return Built(self.spec(space, seed).build(), inputs, subscriptions)

    def measure(self, built: Built, rec: Recorder) -> None:
        seed, space, subscriptions, probes = built.inputs
        for index in range(self.builds()):
            if rec.expired():
                rec.abandon(self.builds() - index + len(probes))
                return
            if index:
                self.close(built)
                built.broker = None
                gc.collect()
                built.broker = self.spec(space, seed).build()
            rec.timed("subscribe_all", built.broker.subscribe_all,
                      subscriptions)
            rec.calibrate()
        membership = built.reference.snapshot()
        for event in probes:
            outcome = rec.timed("publish", built.broker.publish, event)
            rec.published.append((membership, event, outcome))
        rec.calibrate()

    def chunk_times(self, rec: Recorder) -> List[float]:
        return rec.calibrated("subscribe_all")

    def ops_per_chunk(self) -> int:
        return self.scale.bulk_peers


class JournaledPublish(Workload):
    """A synthesized op stream applied under a durable journal."""

    name = "journaled-publish"
    events_per_second = 120

    def chunks(self) -> int:
        return max(2, round(self.seconds * self.events_per_second
                            / self.scale.chunk))

    def generate(self, seed: int) -> Any:
        from repro.workloads.synth import SyntheticWorkload

        return SyntheticWorkload.from_family(
            "zipf-diurnal", subscribers=self.scale.synth_subscribers,
            events=self.scale.warmup + self.chunks() * self.scale.chunk,
            seed=seed)

    def build(self, inputs: Any) -> Built:
        from repro.journal import journaling
        from repro.spatial.filters import make_space
        from repro.traces.format import subscription_from_json
        from repro.traces.replay import apply_op
        from repro.workloads.synth.stream import (SYNTH_STABILIZE_ROUNDS,
                                                  iter_ops)

        with ExitStack() as stack:
            directory = OUT_DIR / f"journal-{os.getpid()}"
            directory.mkdir(parents=True, exist_ok=True)
            stack.callback(shutil.rmtree, directory, ignore_errors=True)
            path = directory / "run.journal"
            path.unlink(missing_ok=True)
            # Its own stack: finish() leaves journaling() (which closes the
            # writer) before it audits the file, the directory goes later.
            journal = stack.enter_context(ExitStack())
            recorder = journal.enter_context(journaling(path))
            space = make_space(*inputs.space_names)
            broker = self.spec(space, inputs.seed,
                               stabilize_rounds=SYNTH_STABILIZE_ROUNDS
                               ).build()
            stream = iter_ops(inputs)
            population = next(stream)
            apply_op(broker, population)
            subscriptions = [subscription_from_json(sub, space)
                             for sub in population.data["subscriptions"]]
            return Built(broker, inputs, subscriptions, stack.pop_all(),
                         {"stream": stream, "recorder": recorder,
                          "journal": journal, "path": path})

    def measure(self, built: Built, rec: Recorder) -> None:
        from repro.traces.replay import apply_op

        broker, stream = built.broker, built.extra["stream"]
        for _ in range(self.scale.warmup):
            apply_op(broker, next(stream))
        ops = built.extra["ops"] = []
        for index in range(self.chunks()):
            if rec.expired():
                rec.abandon((self.chunks() - index) * self.scale.chunk)
                return
            begin = time.perf_counter()
            for _ in range(self.scale.chunk):
                with rec.span("bench.iter_ops"):
                    op = next(stream)
                rec.timed("publish", apply_op, broker, op)
                ops.append(op)
            rec.sample("chunk", time.perf_counter() - begin)
            rec.calibrate()

    def finish(self, built: Built, rec: Recorder) -> Dict[str, Any]:
        from repro.journal import JournalError, verify_journal
        from repro.traces.format import event_from_json

        membership = built.reference.snapshot()
        outcomes = built.broker.accounting.outcomes
        for op in built.extra["ops"]:
            event = event_from_json(op.data["event"])
            rec.published.append(
                (membership, event, outcomes.get(event.event_id)))
        facts = super().finish(built, rec)
        built.extra["recorder"].seal()
        built.extra["journal"].close()
        path = built.extra["path"]
        built.extra["journal_bytes"] = path.stat().st_size
        try:
            verify_journal(path)
            verified = True
        except JournalError as exc:
            verified = False
            rec.problems.append(f"verify_journal: {exc}")
        facts["checks"]["journal_verifies"] = verified
        return facts


WORKLOADS = {cls.name: cls for cls in (
    SteadyPublish, ChurnRepair, BulkBuild, ShardedShm, NetLoopback,
    JournaledPublish)}


@dataclass
class Pass:
    """Everything one pass of the load model measured.

    Times are in seconds of the nominal host (see :mod:`bench.calibrate`)
    unless the name says ``raw``.
    """

    rec: Recorder
    import_s: float
    setup_times: List[float]
    raw_setup_times: List[float]
    chunk_times: List[float]
    ops_per_s: float
    rss_mb: float
    facts: Dict[str, Any]
    extra: Dict[str, Any]
    subscriptions: List[Any]


def execute(workload: Workload, seed: int, started: float,
            setups: int, tracer: Any = None) -> Pass:
    """One pass: set up ``setups`` times, warm up, measure, check, close.

    ``started`` is the ``perf_counter`` reading taken when the interpreter
    began running the benchmark's entry point, so that ``import_s`` covers
    the imports that precede the first set-up.
    """
    from repro.sim.sharded.shm import leaked_segments

    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    workload.prepare()
    rec = Recorder(max(60.0, 4.0 * workload.seconds), span)
    if tracer is not None:
        tracer.bind(rec)
    raw_import_s = time.perf_counter() - started
    factors = [host_factor()]
    raw_setup_times: List[float] = []
    built: Optional[Built] = None
    try:
        for _ in range(setups):
            if built is not None:
                workload.close(built)
                built = None
            begin = time.perf_counter()
            with span("bench.generate"):
                inputs = workload.generate(seed)
            with span("bench.build"):
                built = workload.build(inputs)
            raw_setup_times.append(time.perf_counter() - begin)
            factors.append(host_factor())
        gc.collect()
        counters = built.broker.simulation.metrics.counters()
        rec.start()
        workload.measure(built, rec)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        after = built.broker.simulation.metrics.counters()
        chunk_times = workload.chunk_times(rec)
        facts = workload.finish(built, rec)
    finally:
        if built is not None:
            workload.close(built)
    facts["checks"]["no_failed_ops"] = rec.failed == 0
    facts["checks"]["no_leaked_shm_segments"] = not leaked_segments(
        os.getpid())
    facts["counter_deltas"] = {name: value - counters.get(name, 0.0)
                               for name, value in after.items()}
    return Pass(
        rec=rec,
        import_s=raw_import_s / factors[0],
        setup_times=[seconds * 2.0 / (before + behind) for seconds, before,
                     behind in zip(raw_setup_times, factors, factors[1:])],
        raw_setup_times=raw_setup_times,
        chunk_times=chunk_times,
        ops_per_s=workload.ops_per_chunk() / statistics.median(chunk_times),
        rss_mb=rss_mb, facts=facts, extra=built.extra,
        subscriptions=built.subscriptions)
