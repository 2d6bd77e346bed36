"""NET-LOSSY — stabilization under deterministic loss/latency/partitions.

``net-soak`` measures the real-network backend's background stabilizers
over a *perfect* loopback: every repair frame arrives.  This scenario is
the adversarial companion: the same crash wave is applied under injected
network conditions (:mod:`repro.sim.conditions`) — a sweep of Bernoulli
loss rates plus one timed partition-heal window — and the background
stabilizers must converge anyway, now with their CHECK/ACK/SET_PARENT
frames randomly vanishing in flight.  This is the first measurement of the
paper's repair guarantees under genuinely lossy asynchrony.

One row per condition:

* build the population on ``drtree:net`` over a clean network (the build
  is not the experiment), then install the row's condition pipeline
  (:meth:`~repro.net.broker.NetSimulation.set_conditions` anchors partition
  windows at that instant);
* crash the shared victim set with **no** driven stabilization;
* let the background stabilizers repair under the injected conditions
  (:meth:`~repro.net.broker.NetSimulation.await_convergence`), recording
  cycles-to-convergence and the condition counters;
* lift the conditions, drive one ``stabilize()`` to the refresh fixpoint
  (the same fixpoint the reference runs — ``post_rounds`` counts what the
  background repair still owed), and publish the shared event burst plus
  a probe — the deliveries measure whether the *structure* repaired
  correctly, not whether a lossy link happened to eat a probe frame, so
  false negatives here are genuine repair failures;
* fingerprint the **matching** delivered sets against a condition-free
  simulated reference that ran the identical schedule: the ``loss=0``
  row must match it byte-for-byte, and any converged row should.

Why the digest covers matching deliveries only: the DR-tree's false
*positives* come from enlarged child rectangles registered on parents, so
the exact false-positive set depends on the repair history — driven
rounds and background cycles repair the same legality violations along
different paths, and both are correct (the paper bounds FP *rates*, not
FP sets).  The raw :func:`~repro.analysis.digests.delivered_digest` is
therefore only byte-stable on identical histories (that transparency
claim — a ``loss=0`` pipeline changes no frame — is pinned by the
condition property suite in ``tests/test_net_conditions.py``); here false
positives are reported as the per-condition ``fp`` column instead.

Determinism note: the per-row condition decisions are seeded and per-link
(see :mod:`repro.sim.conditions`), but *which* repair frames exist when
depends on real stabilizer timing — so the cycle/seconds columns measure
the machine while the delivery columns are exact.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro.api.spec import SystemSpec
from repro.experiments.exp_baselines import _comparison_events
from repro.experiments.harness import ExperimentResult
from repro.overlay.config import DRTreeConfig
from repro.runtime.registry import Param, register_scenario
from repro.sim.conditions import NetConditions, PartitionWindow
from repro.sim.rng import RandomStreams
from repro.spatial.filters import Event
from repro.workloads.subscriptions import mixed_subscriptions


def _parse_losses(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _parse_partition(text: str) -> Optional[PartitionWindow]:
    if not text.strip():
        return None
    parts = text.split(":")
    return PartitionWindow(start=float(parts[0]), duration=float(parts[1]),
                           groups=int(parts[2]) if len(parts) > 2 else 2)


def _matching_digest(broker, events_by_id: Dict[str, Event]
                     ) -> Tuple[str, int, int]:
    """SHA-256 over ``event id → sorted matching receivers``.

    Returns ``(digest, false_negatives, false_positives)``: the digest is
    byte-stable across repair histories because it excludes the history-
    dependent false-positive deliveries, which are returned as a count.
    """
    digest = hashlib.sha256()
    negatives = positives = 0
    outcomes = broker.accounting.outcomes
    live = set(broker.subscribers())
    for event_id in sorted(outcomes):
        event = events_by_id[event_id]
        received = set(outcomes[event_id].received)
        matching = {subscriber for subscriber in live
                    if broker.subscription_of(subscriber).matches(event)}
        negatives += len(matching - received)
        positives += len(received - matching)
        digest.update(event_id.encode("utf-8"))
        digest.update(b"|")
        digest.update(",".join(sorted(received & matching))
                      .encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest(), negatives, positives


def _row_conditions(base: NetConditions, loss: float = 0.0,
                    window: Optional[PartitionWindow] = None
                    ) -> NetConditions:
    data = base.to_mapping()
    data["loss"] = loss
    if window is not None:
        data["partitions"] = (window,)
    return NetConditions.from_mapping(data)


def _laggard_note(rows: List[Dict[str, object]], timeout: float
                  ) -> Optional[str]:
    """The warning for rows past the convergence deadline, if any.

    Whether the driven post_rounds fixpoint recovered every delivery is
    read from the laggard rows' ``missed`` column, never assumed.
    """
    laggards = [row for row in rows if not row["converged"]]
    if not laggards:
        return None
    lost = [f"{row['condition']} missed {row['missed']}"
            for row in laggards if row["missed"]]
    outcome = (f"the driven post_rounds fixpoint did not recover every "
               f"matching delivery: {', '.join(lost)}" if lost else
               "the driven post_rounds fixpoint still recovered every "
               "delivery")
    return (f"WARNING: {', '.join(row['condition'] for row in laggards)} "
            f"missed the {timeout:.0f}s convergence deadline (sustained "
            f"loss can expire children faster than repairs land; {outcome})")


@register_scenario(
    "net-lossy",
    "Real-network stabilization under injected loss/latency/partitions",
    description="Sweep deterministic network conditions (Bernoulli loss "
                "rates plus a timed partition-heal window) over the same "
                "crash wave on drtree:net: background stabilizers must "
                "restore a legal overlay while repair frames are being "
                "dropped, delayed or partitioned away. Reports cycles-to-"
                "convergence, condition counters and probe false negatives "
                "per condition, and pins the delivered-event digest "
                "against a condition-free simulated reference (the loss=0 "
                "row must match byte-for-byte).",
    params=(
        Param("peers", int, 150, "subscriber count"),
        Param("events", int, 10, "events in the post-convergence burst"),
        Param("crash_fraction", float, 0.1,
              "fraction of subscribers crashed under conditions"),
        Param("losses", str, "0,0.01,0.05,0.2",
              "comma-separated Bernoulli loss rates to sweep"),
        Param("partition", str, "0:25:2",
              "partition-heal window start:duration:groups in simulated "
              "units ('' disables the partition row)"),
        Param("conditions", str, "",
              "extra condition spec merged into every row "
              "(e.g. 'latency=uniform:0.5:2', see docs/net.md)"),
        Param("timeout", float, 60.0,
              "hard per-row convergence deadline, real seconds"),
        Param("seed", int, 0, "RNG seed"),
        Param("reference", str, "drtree:classic",
              "condition-free simulated backend providing the digest "
              "reference",
              choices=("drtree:classic", "drtree:batched")),
        Param("staleness", int, 0,
              "silence-budget override (child_staleness_rounds and "
              "parent_silence_rounds) on both sides (0 = protocol defaults; "
              "raise at scale so sustained loss cannot out-churn repairs)"),
    ),
)
def net_lossy(peers: int, events: int, crash_fraction: float, losses: str,
              partition: str, conditions: str, timeout: float, seed: int,
              reference: str, staleness: int) -> ExperimentResult:
    """Loss/partition sweep on ``drtree:net`` against a clean reference.

    ``staleness`` overrides both silence budgets — the parent-side
    ``child_staleness_rounds`` and the child-side
    ``parent_silence_rounds`` — on BOTH backends (0 keeps the protocol
    defaults).  It is the knob that makes sustained loss survivable at
    scale: a lossy round-trip fails with probability ``q``, so spurious
    expiries/re-joins arrive at roughly ``N * q**k`` per round across
    ``N`` live links.  At the defaults (``k = 3`` and ``k = 2``) a
    1k-peer overlay under 5% loss re-joins ~8 healthy instances per
    round and never goes quiet; ``k = 8`` drops the false-alarm rate
    below one per thousand rounds.  The reference shares the config, so
    the digest pin still holds.
    """
    result = ExperimentResult(
        "NET-LOSSY", "Background stabilizer convergence under injected "
                     "loss, latency and partitions (drtree:net)")
    workload = mixed_subscriptions(peers, seed=seed)
    subscriptions = list(workload)
    stream = _comparison_events(workload, events, seed)
    config = DRTreeConfig(child_staleness_rounds=staleness,
                          parent_silence_rounds=staleness) if staleness \
        else DRTreeConfig()
    spec = SystemSpec(space=workload.space, config=config, seed=seed)
    base = NetConditions.coerce(conditions) or NetConditions()
    window = _parse_partition(partition)
    rng = RandomStreams(seed).stream("net.lossy.crashes")

    count = max(1, int(peers * crash_fraction))
    count = min(count, max(0, peers - config.max_children))
    victims = rng.sample(sorted(sub.name for sub in subscriptions),
                         count) if count else []

    def schedule(broker) -> Tuple[int, int, int, str]:
        """The shared post-convergence op tail: burst + probe + digest.

        Returns ``(probe_missed, false_negatives, false_positives,
        matching digest)`` over everything published.
        """
        for event in stream:
            broker.publish(event)
        probe = Event(dict(stream[0].attributes), event_id="probe")
        outcome = broker.publish(probe)
        received = set(outcome.received)
        probe_missed = sum(
            1 for subscriber in broker.subscribers()
            if broker.subscription_of(subscriber).matches(probe)
            and subscriber not in received)
        events_by_id = {event.event_id: event for event in stream}
        events_by_id[probe.event_id] = probe
        digest, negatives, positives = _matching_digest(broker, events_by_id)
        return probe_missed, negatives, positives, digest

    # The condition-free reference: same victims, driven stabilize(),
    # same burst/probe.  Its digest is the byte-identity target.
    ref = spec.with_backend(reference).build()
    try:
        ref.subscribe_all(subscriptions)
        for victim in victims:
            ref.fail(victim, stabilize=False)
        ref.stabilize()
        ref_missed, ref_negatives, ref_positives, ref_digest = schedule(ref)
    finally:
        ref.close()

    rows: List[Tuple[str, float, Optional[PartitionWindow]]] = \
        [(f"loss={loss:g}", loss, None) for loss in _parse_losses(losses)]
    if window is not None:
        rows.append((f"partition={partition}", 0.0, window))

    for label, loss, row_window in rows:
        net = spec.with_backend("drtree:net").build()
        try:
            net.subscribe_all(subscriptions)
            net.simulation.set_conditions(
                _row_conditions(base, loss, row_window))
            for victim in victims:
                net.fail(victim, stabilize=False)
            report = net.simulation.await_convergence(timeout=timeout)
            # Lift the conditions for the measurement tail: deliveries then
            # witness the repaired structure, not per-frame luck.  One
            # driven stabilize() refreshes what signature-stability cannot
            # see (MBR staleness) — the same fixpoint the reference runs;
            # post_rounds counts how much refresh the background repair
            # still owed.
            net.simulation.set_conditions(None)
            net.simulation.stabilize()
            post_rounds = int(net.simulation.metrics
                              .histogram("stabilize.rounds").values[-1])
            probe_missed, negatives, positives, digest = schedule(net)
            metrics = net.simulation.metrics
            result.add_row(
                condition=label,
                crashed=len(victims),
                converged=bool(report["converged"]),
                legal=bool(report["legal"]),
                cycles_mean=round(float(report["cycles_mean"]), 1),
                cycles_max=int(report["cycles_max"]),
                seconds=round(float(report["seconds"]), 2),
                post_rounds=post_rounds,
                frames_lost=int(metrics.counter("net.conditions.lost")),
                frames_partitioned=int(
                    metrics.counter("net.conditions.partitioned")),
                probe_missed=probe_missed,
                missed=negatives,
                fp=positives,
                digest_match=digest == ref_digest,
                delivered=digest[:12],
            )
        finally:
            net.close()

    result.add_note(
        f"{len(victims)} shared victim(s) out of {peers} subscribers; "
        f"net repaired by background stabilizers under injected conditions, "
        f"reference {reference} clean + driven stabilize() "
        f"(missed {ref_negatives}, fp {ref_positives}, "
        f"digest {ref_digest[:12]})")
    if base.to_mapping():
        result.add_note(f"extra conditions on every row: {conditions}")
    zero_rows = [row for row in result.rows
                 if row["condition"] == "loss=0"]
    if zero_rows and not zero_rows[0]["digest_match"]:
        result.add_note("WARNING: loss=0 delivered digest diverged from "
                        "the condition-free reference")
    laggard_note = _laggard_note(result.rows, timeout)
    if laggard_note:
        result.add_note(laggard_note)
    return result

