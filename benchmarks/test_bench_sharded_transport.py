"""Shard transport benchmark — shared-memory rings vs pickled pipes.

Runs the ``throughput`` scenario with ``drtree:sharded`` on *both* sides of
the comparison: the baseline moves cross-shard traffic over the pipe
transport, the target over the shared-memory frame rings (shard workers run
the batched dissemination path on both).  The scenario asserts the two
transports produce byte-identical delivery outcomes before any number is
reported, so the speedup can never mask a parity regression.

The ≥2x acceptance bar holds at scale (50k peers, the CI benchmark job's
dedicated step runs ``--full-scale``).  The scaled-down smoke is collected
by the tier-1 test command, where one 0.2 s wall-clock sample cannot carry
a ratio (fixed per-barrier costs dominate and runs land on both sides of
1.0), so it asserts only what is deterministic: equal message and delivery
counts across the two transports.
"""

from __future__ import annotations

import pytest

from repro.experiments import exp_throughput
from repro.sim.sharded import shm_available

pytestmark = pytest.mark.skipif(not shm_available(),
                                reason="multiprocessing.shared_memory "
                                       "unavailable on this platform")


def test_bench_sharded_transport(benchmark, show_table, full_scale):
    peers = 50000 if full_scale else 2000
    events = 300 if full_scale else 150
    result = benchmark.pedantic(
        exp_throughput.run,
        kwargs={"peers": peers, "events": events, "window": 100,
                "backend": "drtree:sharded", "transport": "shm",
                "baseline": "drtree:sharded", "baseline_transport": "pipe",
                "shards": 4},
        rounds=1,
        iterations=1,
    )
    show_table(result)
    by_mode = {row["mode"]: row for row in result.rows}
    shm = by_mode["drtree:sharded@shm"]
    pipe = by_mode["drtree:sharded@pipe"]
    assert shm["messages"] == pipe["messages"]
    assert shm["deliveries"] == pipe["deliveries"]
    if full_scale:
        assert shm["speedup"] >= 2.0
