"""Property-based tests on the DR-tree's global invariants.

Hypothesis drives randomized (but reproducible) membership histories —
interleaved joins, controlled departures and crashes — and after each history
the overlay must stabilize back to a legal configuration in which

* there is exactly one root and every peer is reachable from it,
* every internal node respects the m/M degree bounds,
* every leaf sits at level 0 (height balance),
* dissemination reaches every interested subscriber (no false negatives).
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.overlay import DRTreeConfig, DRTreeSimulation
from repro.spatial.filters import Event, make_space, subscription_from_rect
from repro.spatial.rectangle import Rect
from tests.conftest import record_sim_deliveries

SPACE = make_space("x", "y")


def _subscription(index: int, x: float, y: float, w: float, h: float):
    rect = Rect((x, y), (min(x + w, 1.0), min(y + h, 1.0)))
    return subscription_from_rect(f"P{index}", SPACE, rect)


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
extent = st.floats(min_value=0.01, max_value=0.4, allow_nan=False)

#: A membership action: (kind, payload) where kind selects join/leave/crash.
actions = st.lists(
    st.tuples(st.sampled_from(["join", "leave", "crash"]),
              unit, unit, extent, extent),
    min_size=4,
    max_size=18,
)


def _apply_history(history) -> DRTreeSimulation:
    sim = DRTreeSimulation(DRTreeConfig(2, 4), seed=11)
    counter = 0
    for kind, x, y, w, h in history:
        live = sim.live_peers()
        if kind == "join" or len(live) <= 2:
            sim.add_peer(_subscription(counter, x, y, w, h))
            counter += 1
        elif kind == "leave":
            victim = live[int(x * (len(live) - 1))]
            sim.leave(victim.process_id)
        else:
            victim = live[int(y * (len(live) - 1))]
            sim.crash(victim.process_id)
    sim.stabilize(max_rounds=80)
    return sim


#: Regression history (found by Hypothesis, see ``.hypothesis/patches``): a
#: leave+crash left two un-joined leaves and a stale internal instance whose
#: owner kept ACKing its child while bouncing every JOIN — a deadlock the
#: stabilization rounds never escaped.
DEADLOCK_HISTORY = [
    ("join", 0.0, 0.0, 0.25, 0.25),
    ("join", 0.0, 0.0, 0.25, 0.25),
    ("join", 0.0, 0.0, 0.375, 0.125),
    ("join", 0.0, 1.0, 0.25, 0.25),
    ("join", 0.0, 0.0, 0.25, 0.25),
    ("join", 0.0, 1.0, 0.25, 0.25),
    ("join", 0.0, 1.0, 0.25, 0.25),
    ("join", 0.0, 1.0, 0.25, 0.25),
    ("leave", 0.0, 0.0, 0.25, 0.25),
    ("crash", 0.0, 0.5, 0.25, 0.25),
]


@given(actions)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(history=DEADLOCK_HISTORY).via("discovered failure")
def test_random_membership_histories_stabilize_to_legal_trees(history):
    sim = _apply_history(history)
    report = sim.verify()
    assert report.is_legal, report.violations
    live = sim.live_peers()
    assert report.peer_count == len(live)
    # Height balance: every peer owns a leaf instance at level 0.
    for peer in live:
        assert 0 in peer.instances
        assert peer.instances[0].is_leaf
    # Degree bounds are part of legality, but assert the headline explicitly.
    assert report.max_degree <= 4


@given(actions, unit, unit)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(history=DEADLOCK_HISTORY, ex=0.1, ey=0.9).via("discovered failure")
def test_random_histories_preserve_zero_false_negatives(history, ex, ey):
    sim = _apply_history(history)
    recorder = record_sim_deliveries(sim)
    event = Event({"x": ex, "y": ey}, event_id="probe")
    publisher = sim.root()
    assert publisher is not None
    sim.publish(publisher.process_id, event)
    matching = {p.process_id for p in sim.live_peers()
                if p.subscription.matches(event)}
    assert matching <= recorder.receivers("probe")


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=3))
@settings(max_examples=10, deadline=None)
def test_min_max_children_configurations_build_legal_trees(m, factor):
    """Any legal (m, M) pair produces a legal tree over a fixed workload."""
    M = 2 * m + factor
    sim = DRTreeSimulation(DRTreeConfig(m, M), seed=5)
    for index in range(18):
        x = (index * 0.37) % 0.8
        y = (index * 0.53) % 0.8
        sim.add_peer(_subscription(index, x, y, 0.15, 0.15))
    report = sim.stabilize(max_rounds=60)
    assert report.is_legal, report.violations
    assert report.max_degree <= M
