"""T1 — sustained publish throughput across dissemination engines.

Unlike E1–E10 this scenario measures the *simulator*, not the paper: it
quantifies how many events per second the DR-tree can disseminate under
sustained load, and how much a target engine — the per-round-queue
``batched`` engine or the multi-process ``sharded`` engine — gains over a
baseline (``drtree:classic`` by default).

The same bulk-loaded overlay and the same targeted event stream are driven
through both engines; the scenario *asserts* that the runs produce identical
delivery outcomes — every ``(event, subscriber, matched, hops)`` delivery
record and every dissemination message count must agree — and then reports
events/second and the speedup.  A mismatch raises, so a regression in an
engine can never hide behind a good-looking throughput number.  For the
sharded engine this assertion *is* the paper-fidelity check: 50k-peer runs
produce metrics byte-identical to what the classic single-process simulator
would compute.

Run it from the CLI::

    python -m repro run throughput --peers 5000 --events 2000
    python -m repro run throughput --backend drtree:sharded --shards 4
    python -m repro run throughput --peers 50000 --events 500 \\
        --backend drtree:sharded --shards 4 --baseline none
    python -m repro run throughput --backend drtree:sharded --transport shm \\
        --baseline drtree:sharded --baseline-transport pipe --shards 4

``--baseline none`` skips the comparison run (and its outcome assertion),
which is how populations too large for the single-process engines stay
tractable.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, List, Sequence, Tuple

from repro.api.registry import backend_spec
from repro.experiments.harness import ExperimentResult
from repro.overlay.config import DRTreeConfig
from repro.runtime.registry import Param, backend_param, register_scenario
from repro.spatial.filters import Event, Subscription
from repro.workloads.events import targeted_events
from repro.workloads.subscriptions import (SubscriptionWorkload,
                                           uniform_subscriptions)
from repro.workloads.synth import FAMILY_NAMES

#: One delivery record: (event id, subscriber id, matched flag, hop count).
DeliveryRecord = Tuple[str, str, bool, int]


def workload_stream(workload: str, peers: int, events: int,
                    seed: int) -> Tuple[SubscriptionWorkload, List[Event]]:
    """The subscription population and event stream of one engine run.

    ``workload="none"`` keeps the historical uniform-population/targeted
    stream; a synthesized family (:mod:`repro.workloads.synth`) swaps in
    its base population and draws the events through the full generator —
    Zipf hot-spots, diurnal apportionment, correlated attributes — so the
    engine-level scenarios (``throughput``, ``scale``) measure the same
    event mix the trace-level drivers replay.  (Membership dynamics —
    flash crowds, mobility — are facade ops; the publish-only engine
    drivers here exercise the event stream alone, ``backend_matrix
    --workload`` exercises the full op stream.)
    """
    if workload == "none":
        population = uniform_subscriptions(peers, seed=seed)
        stream = targeted_events(population.space, list(population), events,
                                 seed=seed + 7)
        return population, stream
    from repro.workloads.synth import (SyntheticWorkload, base_population,
                                       iter_events)

    spec = SyntheticWorkload.from_family(workload, subscribers=peers,
                                         events=events, seed=seed)
    return base_population(spec), list(iter_events(spec))


def build_engine_simulation(backend: str, subscriptions: Sequence[Subscription],
                            config: DRTreeConfig, seed: int, shards: int,
                            transport: str = "auto"):
    """Bulk-load and stabilize one ``drtree:<engine>`` simulation.

    Returns the engine's simulation object — a
    :class:`~repro.overlay.builder.DRTreeSimulation` for the in-process
    engines, a :class:`~repro.sim.sharded.ShardedSimulation` for
    ``drtree:sharded`` — each exposing the same driving surface
    (``publish``/``settle``/``peers``/``metrics``).  ``shards`` and
    ``transport`` only apply to the sharded engine.
    """
    options = ({"shards": shards, "transport": transport}
               if backend == "drtree:sharded" else None)
    simulation = backend_spec(backend).build_simulation(config, seed, options)
    simulation.bulk_load(list(subscriptions))
    simulation.stabilize(max_rounds=50)
    return simulation


def mode_label(backend: str, transport: str) -> str:
    """The row label of one engine run.

    Transports only exist on the sharded engine; an explicit one is folded
    into the label (``drtree:sharded@shm``) so that two transports of the
    same engine — the shm-vs-pipe benchmark — get distinct rows.
    """
    if backend.endswith(":sharded") and transport != "auto":
        return f"{backend}@{transport}"
    return backend


def assert_outcome_parity(reference: Sequence[DeliveryRecord],
                          reference_messages: int,
                          candidate: Sequence[DeliveryRecord],
                          candidate_messages: int,
                          reference_label: str,
                          candidate_label: str) -> None:
    """Raise unless two engine runs produced byte-identical outcomes.

    The one parity gate shared by the ``throughput`` and ``scale``
    scenarios (and their CI jobs): every ``(event, subscriber, matched,
    hops)`` delivery record and the dissemination message count must agree.
    """
    if sorted(reference) != sorted(candidate):
        only_reference = set(reference) - set(candidate)
        only_candidate = set(candidate) - set(reference)
        raise RuntimeError(
            f"{reference_label} and {candidate_label} dissemination "
            f"diverged: {len(only_reference)} records only in "
            f"{reference_label}, {len(only_candidate)} only in "
            f"{candidate_label} "
            f"(e.g. {sorted(only_reference | only_candidate)[:3]})"
        )
    if reference_messages != candidate_messages:
        raise RuntimeError(
            "dissemination message counts diverged between engines: "
            f"{reference_messages} {reference_label} vs "
            f"{candidate_messages} {candidate_label}"
        )


def _drive(sim, events: Sequence[Event],
           publishers: Sequence[str],
           window: int) -> Tuple[List[DeliveryRecord], float]:
    """Publish ``events`` round-robin from ``publishers``; time the loop.

    Events are injected in waves of ``window`` publications that are in
    flight together before the simulator drains the queues — the "sustained
    load" the scenario is about.  Every event's dissemination is independent
    (distinct event ids, disjoint duplicate-suppression state), so delivery
    outcomes do not depend on the window size.
    """
    deliveries: List[DeliveryRecord] = []

    def listener(peer_id: str, event: Event, matched: bool, hops: int) -> None:
        deliveries.append((event.event_id, peer_id, matched, hops))

    for peer in sim.peers.values():
        peer.delivery_listener = listener
    population = len(publishers)
    start = time.perf_counter()
    for base in range(0, len(events), window):
        for offset, event in enumerate(events[base:base + window]):
            sim.publish(publishers[(base + offset) % population], event,
                        settle=False)
        sim.settle()
    elapsed = time.perf_counter() - start
    return deliveries, elapsed


def _baseline_engine(value: Any) -> str:
    """Coerce the ``baseline`` parameter: a drtree backend or ``none``."""
    from repro.api.registry import backend_family, normalize_backend

    name = str(value).strip().lower()
    if name == "none":
        return "none"
    normalized = normalize_backend(name)
    if backend_family(normalized) != "drtree":
        raise ValueError(
            f"baseline {value!r} is outside the drtree family this scenario "
            "compares")
    return normalized


def _transport_name(value: Any) -> str:
    """Coerce a shard transport name (``auto``/``inline``/``pipe``/``shm``)."""
    from repro.sim.sharded import TRANSPORTS

    name = str(value).strip().lower()
    if name not in TRANSPORTS:
        raise ValueError(
            f"transport {value!r} is not one of {', '.join(TRANSPORTS)}")
    return name


@register_scenario(
    "throughput",
    "Sustained publish throughput across dissemination engines",
    description="Publish a targeted event stream through a baseline and a "
                "target dissemination engine over the same bulk-loaded "
                "overlay, assert identical delivery outcomes, and report "
                "events/second plus the speedup.  --backend drtree:sharded "
                "--shards N measures the multi-process simulator; "
                "--baseline none skips the comparison run for populations "
                "too large for a single process.",
    params=(
        Param("peers", int, 1000, "number of subscribers in the overlay"),
        Param("events", int, 300, "events published per engine"),
        Param("window", int, 50, "publications in flight together"),
        Param("min_children", int, 4, "node capacity lower bound m"),
        Param("max_children", int, 8, "node capacity upper bound M"),
        Param("seed", int, 0, "RNG seed"),
        backend_param(default="drtree:batched", family="drtree",
                      help="target dissemination engine (drtree family)"),
        Param("baseline", _baseline_engine, "drtree:classic",
              "comparison engine, or 'none' to run the target alone"),
        Param("shards", int, 2,
              "worker processes for the sharded engine (ignored otherwise)"),
        Param("transport", _transport_name, "auto",
              "shard transport for the target engine "
              "(auto/inline/pipe/shm; ignored unless sharded)"),
        Param("baseline_transport", _transport_name, "auto",
              "shard transport for the baseline engine, enabling "
              "shm-vs-pipe comparisons of drtree:sharded"),
        Param("workload", str, "none",
              "synthesized workload family for the population/event stream",
              choices=("none", *FAMILY_NAMES)),
    ),
)
def throughput(peers: int, events: int, window: int, min_children: int,
               max_children: int, seed: int, backend: str, baseline: str,
               shards: int, transport: str, baseline_transport: str,
               workload: str) -> ExperimentResult:
    """Compare sustained events/second between two dissemination engines.

    The default node capacity is ``m=4, M=8`` — wider than the paper's
    ``m=2, M=4`` experiment configuration — because this scenario measures
    the simulator under load, and wider nodes both reduce the per-event
    message count (a shallower tree) and give each fan-out batch more to
    amortize over.  Pass ``min_children``/``max_children`` to measure the
    paper's configuration instead.  Both engines are populated through the
    STR bulk load regardless of size, so the two runs share one tree shape.
    """
    result = ExperimentResult(
        "T1", "Sustained publish throughput across dissemination engines")
    config = DRTreeConfig(min_children=min_children, max_children=max_children)
    population, stream = workload_stream(workload, peers, events, seed)
    events = len(stream)

    baseline_label = mode_label(baseline, baseline_transport)
    target_label = mode_label(backend, transport)
    #: label -> (engine backend, transport) for each run of the comparison.
    mode_specs: Dict[str, Tuple[str, str]] = {}
    if baseline != "none":
        mode_specs[baseline_label] = (baseline, baseline_transport)
    mode_specs.setdefault(target_label, (backend, transport))
    modes = list(mode_specs)
    compare = baseline != "none" and baseline_label != target_label

    #: mode -> (delivery records, elapsed seconds, dissemination messages).
    runs: Dict[str, Tuple[List[DeliveryRecord], float, int]] = {}
    for mode in modes:
        mode_backend, mode_transport = mode_specs[mode]
        sim = build_engine_simulation(mode_backend, list(population), config,
                                      seed, shards, transport=mode_transport)
        publishers = sorted(sim.peers)
        deliveries, elapsed = _drive(sim, stream, publishers, window)
        runs[mode] = (deliveries, elapsed,
                      int(sim.metrics.counter("pubsub.messages")))
        # Drop the simulation (and any shard workers) before building the
        # next one so the second mode is not timed against the first one's
        # retained heap.
        close = getattr(sim, "close", None)
        if close is not None:
            close()
        del sim
        gc.collect()

    if compare:
        reference, candidate = runs[baseline_label], runs[target_label]
        assert_outcome_parity(reference[0], reference[2],
                              candidate[0], candidate[2],
                              baseline_label, target_label)

    base_elapsed = runs[modes[0]][1]
    speedups: Dict[str, float] = {
        mode: (base_elapsed / runs[mode][1] if runs[mode][1] > 0
               else float("inf"))
        for mode in modes
    }
    for mode in modes:
        deliveries, elapsed, messages = runs[mode]
        result.add_row(
            mode=mode,
            peers=peers,
            events=events,
            seconds=round(elapsed, 3),
            events_per_s=round(events / elapsed, 1) if elapsed > 0
            else float("inf"),
            messages=messages,
            deliveries=len(deliveries),
            speedup=1.0 if mode == modes[0] else round(speedups[mode], 2),
        )
    if workload != "none":
        result.add_note(
            f"synthesized workload {workload!r}: {len(population)} base "
            f"subscriber(s), {len(stream)} event(s) drawn through the full "
            "generator (see docs/workloads.md)")
    if compare:
        result.add_note(
            f"delivery outcomes identical across engines "
            f"({len(runs[baseline_label][0])} records, "
            f"{runs[baseline_label][2]} messages); {target_label} speedup "
            f"{speedups[target_label]:.2f}x over {baseline_label}")
    else:
        result.add_note(f"single-engine run ({target_label}); no baseline "
                        "comparison requested")
    return result
