"""Differential transport parity: random op sequences, classic vs sharded.

The sharded simulator's contract is *indistinguishability*: whatever
sequence of facade operations a client performs — subscriptions, event
publications, crashes, repairs, late joins, controlled departures — the
observable outcome (summary metrics, every delivery record, every simulator
counter, the surviving subscriber set) must match ``drtree:classic`` on the
same seed, for every shard count and every transport.  This suite enforces
that property *differentially*: hypothesis generates random op sequences,
an interpreter replays each sequence through the classic engine once and
then through sharded engines across {inline, pipe, shm} × {1, 2, 8 shards},
and any divergence anywhere fails with the op sequence minimized by
hypothesis.

The base population is bulk-loaded above the bulk threshold, so 2 and 8
requested shards really partition the tree.  There the contract is weaker
than byte identity in two places, because messages that land in the same
instant on several shards can be handled in another order than in
classic's single event queue:

* Stabilization bookkeeping after a join: a PARENT_NACK may arrive before
  instead of after the SET_PARENT that makes it stale, so the
  ``stabilization.nacks`` counter (and, rarely, a JOIN retry) can move.
  Every delivery record and summary column still matches.
* A repair after a crash or a departure: the orphans' re-joins race the
  same way (and a remote oracle change is visible one barrier later), so
  the repaired tree is legal but may be shaped differently; false
  positives, hops and message counters can move.  What must not move is
  *what* matching subscribers get: the same events, the same true
  deliveries, the same false negatives.

One shard delegates to the single-process simulator and stays
byte-identical on everything.

``inline`` runs the shard command set with no channel at all, so it
separates a barrier/partition bug from a transport one; the two *real*
inter-process transports — pickled pipes and the shared-memory frame rings
of :mod:`repro.sim.sharded.shm` — add the framing, batching and barrier
behavior that must be invisible.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.spec import SystemSpec
from repro.overlay.bootstrap import BULK_THRESHOLD
from repro.overlay.config import DRTreeConfig
from repro.sim.sharded import shm_available
from repro.spatial.filters import subscription_from_intervals
from repro.workloads.events import targeted_events
from repro.workloads.subscriptions import uniform_subscriptions
from tests.conftest import record_deliveries

CONFIG = DRTreeConfig(min_children=2, max_children=4)

#: The bulk-loaded base population every sequence starts from: just past
#: the bulk threshold, so a bulk load partitions it (below it, peers are
#: built by joins, each on the root's shard, so one shard holds them all),
#: and small enough that one hypothesis example (1 classic + 9 sharded
#: runs) stays fast.
_WORKLOAD = uniform_subscriptions(BULK_THRESHOLD + 8, seed=13)
SPACE = _WORKLOAD.space
BASE_SUBS = list(_WORKLOAD)
EVENTS = targeted_events(SPACE, BASE_SUBS, 40, seed=29)

#: Never shrink the population below this through leaves/crashes, so every
#: generated sequence keeps a publishable, repairable overlay.
MIN_POPULATION = 100

#: What a repair after a crash or a departure must keep on a multi-shard
#: grid point: the summary columns that count matching deliveries.
DELIVERY_COLUMNS = ("events", "true_deliveries", "false_negatives")

#: (shards, transport) grid the classic outcome is checked against.
TRANSPORT_GRID = [(1, "inline"), (2, "inline"), (8, "inline"),
                  (1, "pipe"), (2, "pipe"), (8, "pipe")]
if shm_available():
    TRANSPORT_GRID += [(1, "shm"), (2, "shm"), (8, "shm")]


def interpret(backend, ops, engine_options=None, seed=13):
    """Replay one op sequence; return everything a client can observe.

    The interpreter is deliberately deterministic given ``ops`` alone —
    victim picks and joiner rectangles derive from the op's integer payload
    and the interpreter's own state, never from the engine under test — so
    the classic and sharded replays see the exact same call sequence.
    """
    spec = SystemSpec(space=SPACE, backend=backend, config=CONFIG, seed=seed,
                      engine_options=engine_options)
    broker = spec.build()
    recorder = record_deliveries(broker)
    active = list(broker.subscribe_all(BASE_SUBS))
    joined = 0
    for kind, value in ops:
        if kind == "publish":
            broker.publish_many([EVENTS[value % len(EVENTS)]])
        elif kind == "join":
            low = (value % 60) / 100.0
            sub = subscription_from_intervals(
                f"joiner-{joined}", SPACE,
                {name: (low, low + 0.25) for name in SPACE.names})
            joined += 1
            broker.subscribe(sub)
            active.append(sub.name)
        elif kind == "leave":
            if len(active) <= MIN_POPULATION:
                continue
            broker.unsubscribe(active.pop(value % len(active)))
        elif kind == "crash":
            if len(active) <= MIN_POPULATION:
                continue
            broker.fail(active.pop(value % len(active)))
        else:  # stabilize
            broker.stabilize()
    outcome = (
        broker.summary(),
        sorted(broker.subscribers()),
        sorted(recorder.deliveries),
        {name: count
         for name, count in broker.simulation.metrics.counters().items()
         if not name.startswith("shard.")},
    )
    close = getattr(broker.simulation, "close", None)
    if close is not None:
        close()
    return outcome


_PAYLOAD = st.integers(min_value=0, max_value=10**6)
_OP = st.one_of(
    st.tuples(st.just("publish"), _PAYLOAD),
    st.tuples(st.just("join"), _PAYLOAD),
    st.tuples(st.just("leave"), _PAYLOAD),
    st.tuples(st.just("crash"), _PAYLOAD),
    st.tuples(st.just("stabilize"), st.just(0)),
)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(_OP, max_size=10))
def test_random_op_sequences_are_transport_invariant(ops):
    classic = interpret("drtree:classic", ops)
    churned = any(kind in ("leave", "crash") for kind, _ in ops)
    for shards, transport in TRANSPORT_GRID:
        sharded = interpret(
            "drtree:sharded", ops,
            engine_options={"shards": shards, "transport": transport})
        where = f"{shards} shards over {transport!r} on ops {ops!r}"
        if shards == 1:
            assert sharded == classic, f"diverged from classic: {where}"
        elif not churned:
            assert sharded[:3] == classic[:3], where
        else:
            summary, subscribers = sharded[:2]
            assert subscribers == classic[1], where
            assert ({column: summary[column] for column in DELIVERY_COLUMNS}
                    == {column: classic[0][column]
                        for column in DELIVERY_COLUMNS}), where


#: A sequence the property above drew.  ``drtree:classic`` used to end on
#: a tree the verifier called legal in which ``e38`` missed ``S194`` and
#: ``S58`` (2 false negatives): a cover exchange at ``S200@3`` handed over
#: that level alone and left ``S200`` at levels {0, 1, 2, 4, 5}.
LEGAL_BUT_LOSSY_OPS = [("join", 15350), ("leave", 1232), ("stabilize", 0),
                       ("crash", 31057), ("stabilize", 0), ("publish", 9838),
                       ("crash", 31057), ("stabilize", 0), ("publish", 1211),
                       ("publish", 38778)]


def test_a_legal_repair_loses_nothing_on_the_pinned_op_sequence():
    summary = interpret("drtree:classic", LEGAL_BUT_LOSSY_OPS)[0]
    assert summary["false_negatives"] == 0


def test_a_repair_that_hits_its_round_cap_is_counted():
    """A root crash repaired under a one-round cap ends illegal (no root
    yet); the cap is counted, not silent, and an uncapped ``stabilize()``
    then makes the tree legal without counting another."""
    broker = SystemSpec(space=SPACE, backend="drtree:classic", config=CONFIG,
                        seed=13).build()
    broker.subscribe_all(BASE_SUBS)
    broker.fail(broker.simulation.root().process_id, stabilize=False)
    assert not broker.stabilize(max_rounds=1).is_legal
    assert broker.simulation.metrics.counter("stabilize.capped") == 1
    assert broker.stabilize().is_legal
    assert broker.simulation.metrics.counter("stabilize.capped") == 1


@pytest.mark.parametrize("shards", [2, 8])
def test_the_base_population_is_really_partitioned(shards):
    broker = SystemSpec(space=SPACE, backend="drtree:sharded", config=CONFIG,
                        seed=13, engine_options={"shards": shards,
                                                 "transport": "inline"}
                        ).build()
    try:
        broker.subscribe_all(BASE_SUBS)
        assert len(broker.simulation.shard_report()) == shards
    finally:
        broker.close()


#: One fixed, maximally mixed sequence.  The first crash takes out ``S70``,
#: a level-3 peer whose orphaned fragments span shards: their roots must
#: find each other through the replicated oracle, and this repair is
#: byte-identical to classic's.
DENSE_OPS = [
    ("publish", 0), ("publish", 1),
    ("join", 7), ("publish", 2),
    ("crash", 70), ("stabilize", 0), ("publish", 3),
    ("leave", 11), ("publish", 4),
    ("join", 41), ("publish", 5), ("publish", 6),
    ("leave", 2), ("crash", 17), ("stabilize", 0),
    ("publish", 7), ("publish", 8),
]


@pytest.fixture(scope="module")
def dense_classic():
    return interpret("drtree:classic", DENSE_OPS)


@pytest.mark.parametrize("shards,transport", TRANSPORT_GRID)
def test_dense_churn_sequence_is_transport_invariant(shards, transport,
                                                     dense_classic):
    """:data:`DENSE_OPS` runs on every grid point.

    Hypothesis explores breadth; this pins one deep interleaving — publish
    bursts between every membership mutation and an explicit repair after a
    crash — so each (shards, transport) pair is exercised on every op kind
    in every CI run, not just when the random sampler happens to visit it.
    """
    sharded = interpret(
        "drtree:sharded", DENSE_OPS,
        engine_options={"shards": shards, "transport": transport})
    assert sharded == dense_classic


def test_no_capped_repair_on_the_dense_sequence(dense_classic):
    """Every repair of :data:`DENSE_OPS` ends legal: the counter that counts
    capped ones exists only once incremented."""
    assert "stabilize.capped" not in dense_classic[3]
