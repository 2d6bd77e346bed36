"""Self-stabilization tests: crashes, corruption, and convergence (Lemmas 3.3-3.6)."""

from __future__ import annotations

import pytest

from repro.overlay import DRTreeConfig, build_stable_tree
from repro.spatial.rectangle import Rect
from tests.conftest import random_subscriptions


def build(space, count, seed=0, m=2, M=4):
    subs = random_subscriptions(space, count, seed=seed)
    return build_stable_tree(subs, DRTreeConfig(m, M), seed=seed)


# --------------------------------------------------------------------------- #
# Crash recovery (uncontrolled departures, Lemma 3.5)
# --------------------------------------------------------------------------- #


def test_recovery_after_leaf_crash(space):
    sim = build(space, 20, seed=1)
    leaf = next(p for p in sim.live_peers() if p.top_level() == 0)
    sim.crash(leaf.process_id)
    report = sim.stabilize(max_rounds=40)
    assert report.is_legal, report.violations
    assert report.peer_count == 19


def test_recovery_after_internal_crash(space):
    sim = build(space, 25, seed=2)
    internal = next(
        p for p in sim.live_peers()
        if 0 < p.top_level() < p.top_level() or p.top_level() >= 1
    )
    sim.crash(internal.process_id)
    report = sim.stabilize(max_rounds=60)
    assert report.is_legal, report.violations
    assert report.peer_count == 24


def test_recovery_after_root_crash(space):
    sim = build(space, 25, seed=3)
    root = sim.root()
    assert root is not None
    sim.crash(root.process_id)
    report = sim.stabilize(max_rounds=60)
    assert report.is_legal, report.violations
    assert report.peer_count == 24
    new_root = sim.root()
    assert new_root is not None and new_root.process_id != root.process_id


def test_recovery_after_multiple_crashes(space):
    sim = build(space, 40, seed=4)
    victims = [p.process_id for p in sim.live_peers()][::7][:5]
    for victim in victims:
        sim.crash(victim)
    report = sim.stabilize(max_rounds=80)
    assert report.is_legal, report.violations
    assert report.peer_count == 35


# --------------------------------------------------------------------------- #
# Memory corruption (transient faults, Lemma 3.6)
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("field", ["parent", "children", "mbr", "underloaded"])
def test_recovery_from_single_field_corruption(space, field):
    sim = build(space, 20, seed=5)
    report = sim.corrupt(fraction=0.4, fields=[field])
    assert report.count > 0
    final = sim.stabilize(max_rounds=60)
    assert final.is_legal, final.violations


def test_recovery_from_full_corruption(space):
    sim = build(space, 30, seed=6)
    sim.corrupt(fraction=0.4)
    final = sim.stabilize(max_rounds=80)
    assert final.is_legal, final.violations
    assert final.peer_count == 30


def test_mbr_corruption_is_repaired_in_place(space):
    sim = build(space, 12, seed=7)
    peer = sim.root() or sim.live_peers()[0]
    bogus = Rect((0.0, 0.0), (0.001, 0.001))
    level = peer.top_level()
    peer.corrupt_mbr(level, bogus)
    sim.run_round()
    sim.run_round()
    repaired = peer.mbr_at(level)
    assert repaired is not None and repaired.as_tuple() != bogus.as_tuple()
    assert sim.stabilize(max_rounds=20).is_legal


def test_corrupted_underloaded_flag_reset(space):
    sim = build(space, 15, seed=8)
    victim = next(p for p in sim.live_peers() if p.top_level() >= 1)
    level = victim.top_level()
    truth = len(victim.instances[level].children) < sim.config.min_children
    victim.corrupt_underloaded(level, not truth)
    sim.run_round()
    if level in victim.instances:  # the repair may legitimately reshuffle
        assert victim.instances[level].underloaded == (
            len(victim.instances[level].children) < sim.config.min_children
        )
    assert sim.stabilize(max_rounds=30).is_legal


def test_corrupted_parent_pointer_triggers_rejoin(space):
    sim = build(space, 20, seed=9)
    # Corrupt a leaf-only peer's parent pointer to point at a random peer.
    leaf = next(p for p in sim.live_peers() if p.top_level() == 0)
    other = next(p for p in sim.live_peers()
                 if p.process_id != leaf.process_id and p.top_level() == 0)
    leaf.corrupt_parent(0, other.process_id)
    final = sim.stabilize(max_rounds=40)
    assert final.is_legal, final.violations


# --------------------------------------------------------------------------- #
# Combined faults and repeated convergence
# --------------------------------------------------------------------------- #


def test_combined_crash_and_corruption(space):
    sim = build(space, 30, seed=10, M=5)
    victims = [p.process_id for p in sim.live_peers()][:3]
    for victim in victims:
        sim.crash(victim)
    sim.corrupt(fraction=0.2)
    final = sim.stabilize(max_rounds=80)
    assert final.is_legal, final.violations
    assert final.peer_count == 27


def test_stabilize_is_idempotent_on_legal_configuration(space):
    sim = build(space, 20, seed=11)
    before = sim.verify()
    assert before.is_legal
    messages_before = sim.metrics.counter("network.messages_sent")
    report = sim.stabilize(max_rounds=5)
    assert report.is_legal
    # A legal configuration requires no repair messages beyond the periodic
    # parent queries/acks of at most a few rounds.
    assert sim.metrics.counter("network.messages_sent") - messages_before >= 0


def test_metrics_record_repairs(space):
    sim = build(space, 25, seed=13)
    sim.corrupt(fraction=0.5, fields=["mbr"])
    sim.stabilize(max_rounds=30)
    assert sim.metrics.counter("stabilization.mbr_repairs") > 0
