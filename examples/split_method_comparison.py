#!/usr/bin/env python3
"""Domain example: choosing a split method for a clustered workload.

Section 3.2 lists three node-splitting policies the DR-tree supports —
linear, quadratic and R* — inherited from the classical R-tree literature.
The policy determines how tight the internal MBRs are, and therefore how many
false positives the embedded publish/subscribe system produces.

This example builds the same clustered subscription workload with each policy
and prints the resulting structural quality and routing accuracy, together
with the centralized R-tree baseline for reference.

Run with::

    python examples/split_method_comparison.py
"""

from __future__ import annotations

from repro.baselines import CentralizedBrokerOverlay
from repro.rtree import RTree
from repro.runtime import load_scenarios
from repro.workloads.subscriptions import clustered_subscriptions


def main() -> None:
    print("Comparing DR-tree split methods on a clustered workload "
          "(60 subscribers, 40 probe events)...\n")
    scenario = load_scenarios().get("split_methods")
    result = scenario.run(peers=60, events=40, seed=2)
    print(result.to_table())

    print("\nSequential R-tree reference (centralized broker):")
    workload = clustered_subscriptions(60, seed=2)
    for method in ("linear", "quadratic", "rstar"):
        index = RTree(min_entries=2, max_entries=5, split_method=method)
        for sub in workload:
            index.insert(sub.rect, sub.name)
        print(f"  {method:<10} height={index.height()}  "
              f"splits={index.stats.splits}")

    broker = CentralizedBrokerOverlay(min_entries=2, max_entries=5)
    broker.add_all(list(workload))
    print(f"\nCentralized broker R-tree height: {broker.index_height()} "
          "(single point of failure — the problem the DR-tree removes)")


if __name__ == "__main__":
    main()
