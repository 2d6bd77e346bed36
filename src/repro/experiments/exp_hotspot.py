"""W1 — hot-spot publication streams (Zipf-skewed event popularity).

The paper's Section 3.2 observes that a statically optimized DR-tree can
perform poorly under *biased* event workloads: when most publications land in
a few small regions, any false-positive area a node's MBR accrues there is
hit over and over.  This scenario drives that regime end to end: clustered
subscriptions, and a publication stream whose hotspot popularity follows a
Zipf law (:func:`repro.workloads.events.zipf_events`) — the top hotspot
absorbs roughly half of the hot traffic at the default exponent.

The scenario is *trace-replayable*: every workload decision goes through the
publish/subscribe facade, so ::

    python -m repro run hotspot --record t.jsonl
    python -m repro run --trace t.jsonl            # bit-identical metrics
    python -m repro run --trace t.jsonl --backend drtree:batched

reproduce the same canonical delivery-metrics row (see ``docs/traces.md``),
and *backend-aware*: ``--backend flooding`` (or any registered broker) runs
the identical workload on a baseline overlay for comparison.
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentResult, build_pubsub_system
from repro.overlay.config import DRTreeConfig
from repro.runtime.registry import Param, backend_param, register_scenario
from repro.traces.replay import delivery_metrics_row
from repro.workloads.events import zipf_events
from repro.workloads.subscriptions import clustered_subscriptions


@register_scenario(
    "hotspot",
    "Hot-spot event streams (Zipf-skewed)",
    description="Clustered subscriptions under a Zipf-skewed hot-spot "
                "publication stream: the adversarial regime for a statically "
                "optimized tree, reported as the canonical replayable "
                "delivery-metrics row.",
    params=(
        Param("peers", int, 120, "number of subscribers"),
        Param("events", int, 200, "publications in the stream"),
        Param("hotspots", int, 3, "number of hot regions"),
        Param("hot_fraction", float, 0.9,
              "fraction of events drawn from hotspots"),
        Param("exponent", float, 1.2, "Zipf exponent of hotspot popularity"),
        Param("spread", float, 0.04, "gaussian spread around each hotspot"),
        Param("min_children", int, 2, "node capacity lower bound m"),
        Param("max_children", int, 5, "node capacity upper bound M"),
        Param("seed", int, 0, "RNG seed"),
        backend_param(),
    ),
    replayable=True,
)
def hotspot(peers: int, events: int, hotspots: int, hot_fraction: float,
            exponent: float, spread: float, min_children: int,
            max_children: int, seed: int, backend: str) -> ExperimentResult:
    """Publish a Zipf-skewed hot-spot stream into a clustered overlay.

    The result's single row is the canonical trace metrics row
    (:func:`~repro.traces.replay.delivery_metrics_row`), which is what makes
    a recorded run and its replay byte-comparable.
    """
    result = ExperimentResult("W1", "Hot-spot event streams (Zipf-skewed)")
    config = DRTreeConfig(min_children=min_children, max_children=max_children)
    # One subscription cluster per hotspot; the stream's hotspot centres are
    # pinned to the clusters' first members, so the hot traffic hammers
    # *subscribed* regions — the regime where false-positive MBR area hurts.
    workload = clustered_subscriptions(peers, seed=seed, clusters=hotspots)
    space = workload.space
    centres = [
        dict(zip(space.names, sub.rect.center.coords))
        for sub in workload.subscriptions[:hotspots]
    ]
    stream = zipf_events(space, events, seed=seed + 7,
                         hotspots=hotspots, exponent=exponent, spread=spread,
                         hot_fraction=hot_fraction, centres=centres)
    system = build_pubsub_system(workload, config, seed=seed, backend=backend)
    outcomes = system.publish_many(stream)
    result.add_row(**delivery_metrics_row(system))
    matched = sum(1 for outcome in outcomes if outcome.intended)
    result.add_note(
        f"{hotspots} hotspots, exponent {exponent}: {matched}/{events} events "
        f"had at least one interested subscriber")
    result.add_note("the row is the canonical trace metrics row; record with "
                    "--record and replay with --trace for a byte-identical "
                    "metrics document")
    return result
