"""S1 — sharded scale: metric parity with classic, then 20k+ peer runs.

The sharded engine's contract is twofold: it must *scale* — populations far
beyond what one Python process can disseminate in reasonable time — and it
must stay *faithful* — delivery metrics byte-identical to the
single-process ``drtree:classic`` engine on the same seed.  This scenario
checks both in one run:

1. **Parity phase** (``parity_peers``, a size the classic engine handles
   comfortably): the identical workload is driven through ``drtree:classic``
   and ``drtree:sharded``; every delivery record, every hop count and the
   dissemination message counter must agree bit for bit, or the scenario
   raises.
2. **Scale phase** (``peers``, defaulting to 20k): the sharded engine alone
   carries the large population, and the table reports the per-shard load
   balance — peers, deliveries, local messages — and the cross-shard
   traffic (messages that crossed worker pipes), plus sustained
   events/second.

This is the scenario behind the CI ``scale`` job::

    python -m repro run scale --peers 20000 --shards 4 --events 300
    python -m repro run scale --peers 100000 --shards 8 --transport shm
"""

from __future__ import annotations

import gc
from typing import List, Tuple

from repro.experiments.exp_throughput import (DeliveryRecord, _drive,
                                              _transport_name,
                                              assert_outcome_parity,
                                              build_engine_simulation,
                                              mode_label, workload_stream)
from repro.experiments.harness import ExperimentResult
from repro.overlay.config import DRTreeConfig
from repro.runtime.registry import Param, register_scenario
from repro.workloads.synth import FAMILY_NAMES


def _run_engine(backend: str, peers: int, events: int, window: int,
                config: DRTreeConfig, seed: int, shards: int,
                transport: str = "auto", workload: str = "none"
                ) -> Tuple[List[DeliveryRecord], float, int, list]:
    """One engine run: (delivery records, seconds, messages, shard rows)."""
    population, stream = workload_stream(workload, peers, events, seed)
    sim = build_engine_simulation(backend, list(population), config, seed,
                                  shards, transport=transport)
    deliveries, elapsed = _drive(sim, stream, sorted(sim.peers), window)
    messages = int(sim.metrics.counter("pubsub.messages"))
    shard_rows = sim.shard_report() if hasattr(sim, "shard_report") else []
    close = getattr(sim, "close", None)
    if close is not None:
        close()
    del sim
    gc.collect()
    return deliveries, elapsed, messages, shard_rows


@register_scenario(
    "scale",
    "Sharded scale (classic parity + load balance)",
    description="Drive one workload through drtree:classic and "
                "drtree:sharded at a parity size and assert byte-identical "
                "delivery records and message counts; then run the sharded "
                "engine alone at the full population and tabulate per-shard "
                "load balance and cross-shard pipe traffic.",
    params=(
        Param("peers", int, 20000, "population of the scale phase"),
        Param("events", int, 300, "events published in the scale phase"),
        Param("window", int, 100, "publications in flight together"),
        Param("shards", int, 4, "worker processes for the sharded engine"),
        Param("parity_peers", int, 1500, "population of the parity phase"),
        Param("parity_events", int, 100, "events of the parity phase"),
        Param("min_children", int, 4, "node capacity lower bound m"),
        Param("max_children", int, 8, "node capacity upper bound M"),
        Param("seed", int, 0, "RNG seed"),
        Param("transport", _transport_name, "auto",
              "shard transport (auto/inline/pipe/shm)"),
        Param("workload", str, "none",
              "synthesized workload family for the population/event stream",
              choices=("none", *FAMILY_NAMES)),
    ),
)
def scale(peers: int, events: int, window: int, shards: int,
          parity_peers: int, parity_events: int, min_children: int,
          max_children: int, seed: int, transport: str,
          workload: str) -> ExperimentResult:
    """Assert sharded/classic metric parity, then report the scale run."""
    result = ExperimentResult(
        "S1", "Sharded scale: classic parity + per-shard load balance")
    config = DRTreeConfig(min_children=min_children, max_children=max_children)
    sharded_label = mode_label("drtree:sharded", transport)

    # Phase 1 — byte-parity against the single-process engine.  A synthesized
    # workload family flows through both phases, so parity is asserted on the
    # same population/event shape the scale phase measures.
    classic = _run_engine("drtree:classic", parity_peers, parity_events,
                          window, config, seed, shards, workload=workload)
    sharded = _run_engine("drtree:sharded", parity_peers, parity_events,
                          window, config, seed, shards, transport=transport,
                          workload=workload)
    assert_outcome_parity(classic[0], classic[2], sharded[0], sharded[2],
                          "drtree:classic", sharded_label)
    result.add_note(
        f"parity: {parity_peers} peers / {parity_events} events — "
        f"{len(classic[0])} delivery records and {classic[2]} dissemination "
        f"messages byte-identical between drtree:classic and {sharded_label} "
        f"({shards} shards)")

    # Phase 2 — the large population, sharded engine only.
    deliveries, elapsed, messages, shard_rows = _run_engine(
        "drtree:sharded", peers, events, window, config, seed, shards,
        transport=transport, workload=workload)
    total_local = sum(row["messages"] for row in shard_rows)
    total_cross = sum(row["remote_out"] for row in shard_rows)
    for row in shard_rows:
        result.add_row(
            shard=str(row["shard"]),
            peers=row["peers"],
            deliveries=row["deliveries"],
            messages=row["messages"],
            cross_out=row["remote_out"],
            cross_in=row["remote_in"],
            load_pct=round(100.0 * row["peers"] / peers, 1),
        )
    result.add_row(
        shard="all",
        peers=peers,
        deliveries=len(deliveries),
        messages=total_local,
        cross_out=total_cross,
        cross_in=sum(row["remote_in"] for row in shard_rows),
        load_pct=100.0,
    )
    cross_fraction = (100.0 * total_cross / total_local) if total_local else 0.0
    result.add_note(
        f"scale: {peers} peers / {events} events ({messages} dissemination "
        f"messages) over {len(shard_rows)} shards in {elapsed:.2f}s "
        f"({events / elapsed:.1f} events/s); {cross_fraction:.2f}% of "
        f"network messages crossed shards")
    if workload != "none":
        result.add_note(
            f"synthesized workload {workload!r} drove both phases "
            "(see docs/workloads.md)")
    return result
