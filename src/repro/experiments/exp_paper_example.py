"""E1 — the running example of Figures 1-5.

Builds a DR-tree over the eight reconstructed subscriptions S1..S8, publishes
the four events a..d and reports, per event, the intended audience, the
deliveries, the false positives/negatives and the number of network messages
used.  The paper's qualitative claims checked here:

* the overlay is a legal, balanced DR-tree of small height,
* dissemination produces **no false negatives**,
* an event that interests a whole containment family (event ``a``) is
  delivered with a handful of messages; the root receives it too, one false
  positive that the claims ledger in ``docs/scenarios.md`` records.
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentResult
from repro.overlay.config import DRTreeConfig
from repro.pubsub.api import PubSubSystem
from repro.runtime.registry import Param, register_scenario
from repro.workloads.paper_example import (
    paper_attribute_space,
    paper_events,
    scaled_paper_subscriptions,
)

#: The containment-awareness check builds a quadratic containment graph;
#: above this population only Definition 3.1 legality is verified.
CONTAINMENT_CHECK_LIMIT = 128


@register_scenario(
    "paper_example",
    "Running example (Figures 1-5)",
    description="DR-tree over the paper's eight subscriptions (padded with "
                "uniform filler beyond 8 peers) publishing the events a..d.",
    params=(
        Param("peers", int, 8, "subscriber count (8 = the exact paper example)"),
        Param("seed", int, 1, "RNG seed"),
        Param("min_children", int, 2, "the paper's m bound"),
        Param("max_children", int, 4, "the paper's M bound"),
    ),
    replayable=True,
    experiment_id="E1",
)
def paper_example(peers: int, seed: int, min_children: int,
                  max_children: int) -> ExperimentResult:
    """Run the running-example experiment.

    ``peers=8`` reproduces the exact example of Figures 1-5; larger values
    keep S1..S8 and pad the population with uniform filler subscriptions
    (taking the STR bulk-load path past the threshold), which turns the
    qualitative example into a scale scenario.
    """
    result = ExperimentResult("E1", "Running example (Figures 1-5)")
    subs = scaled_paper_subscriptions(peers, seed=seed)
    system = PubSubSystem(
        paper_attribute_space(),
        DRTreeConfig(min_children=min_children, max_children=max_children),
        seed=seed,
    )
    system.subscribe_all(subs.values())
    report = system.simulation.verify(
        check_containment=len(subs) <= CONTAINMENT_CHECK_LIMIT)

    for event_id, event in paper_events().items():
        outcome = system.publish(event)
        result.add_row(
            event=event_id,
            intended=len(outcome.intended),
            delivered=len(outcome.true_deliveries),
            false_negatives=len(outcome.false_negatives),
            false_positives=len(outcome.false_positives),
            messages=outcome.messages,
            max_hops=outcome.max_hops,
        )

    result.add_note(f"overlay height = {report.height}")
    result.add_note(f"legal configuration = {report.is_legal}")
    if len(subs) <= CONTAINMENT_CHECK_LIMIT:
        result.add_note(
            "weak containment-awareness violations = "
            f"{len(report.weak_containment_violations)}"
        )
    summary = system.summary()
    result.add_note(f"total false negatives = {summary['false_negatives']:.0f}")
    result.add_note(
        f"false positive rate = {summary['false_positive_rate']:.3f}"
    )
    return result
