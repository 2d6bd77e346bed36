"""Tests for STR bulk loading: R-tree invariants and DR-tree legality."""

from __future__ import annotations

import random

import pytest

from repro.overlay import (
    BULK_THRESHOLD,
    DRTreeConfig,
    DRTreeSimulation,
    bootstrap_overlay,
    build_stable_tree,
)
from repro.rtree.bulk import bulk_load, str_groups
from repro.spatial.filters import Event
from repro.spatial.rectangle import Rect
from repro.workloads.subscriptions import uniform_subscriptions
from tests.conftest import record_sim_deliveries


def _random_items(count: int, seed: int = 0):
    rng = random.Random(seed)
    items = []
    for index in range(count):
        x, y = rng.random(), rng.random()
        rect = Rect((x, y), (min(x + rng.random() * 0.2, 1.0),
                             min(y + rng.random() * 0.2, 1.0)))
        items.append((rect, index))
    return items


# --------------------------------------------------------------------------- #
# STR tiling
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("count", [1, 4, 5, 17, 100, 1000])
@pytest.mark.parametrize("capacity", [4, 6, 8])
def test_str_groups_cover_everything_within_bounds(count, capacity):
    rects = [rect for rect, _ in _random_items(count)]
    groups = str_groups(rects, capacity)
    flat = sorted(index for group in groups for index in group)
    assert flat == list(range(count))  # a partition: no loss, no duplication
    assert all(len(group) <= capacity for group in groups)
    if len(groups) > 1:
        assert all(len(group) >= capacity // 2 for group in groups)


def test_str_groups_empty_and_invalid_capacity():
    assert str_groups([], 4) == []
    with pytest.raises(ValueError):
        str_groups([Rect((0, 0), (1, 1))], 0)


# --------------------------------------------------------------------------- #
# Sequential R-tree bulk load
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("count", [0, 1, 3, 17, 500])
@pytest.mark.parametrize("bounds", [(2, 4), (4, 8)])
def test_bulk_load_invariants_and_content(count, bounds):
    items = _random_items(count)
    tree = bulk_load(items, *bounds)
    assert tree.check_invariants() == []
    assert len(tree) == count
    assert sorted(tree.payloads()) == list(range(count))


def test_bulk_load_supports_search_insert_delete():
    items = _random_items(300, seed=2)
    tree = bulk_load(items, 2, 4)
    probe_rect, probe_payload = items[42]
    assert probe_payload in tree.search_point(probe_rect.center)
    extra = _random_items(40, seed=9)
    for rect, payload in extra:
        tree.insert(rect, 1000 + payload)
    for rect, payload in items[:40]:
        assert tree.delete(rect, payload)
    assert tree.check_invariants() == []
    assert len(tree) == 300


def test_bulk_load_matches_incremental_search_results():
    items = _random_items(200, seed=5)
    bulk = bulk_load(items, 2, 4)
    from repro.rtree.rtree import RTree

    incremental = RTree(2, 4)
    for rect, payload in items:
        incremental.insert(rect, payload)
    for rect, _ in items[:25]:
        assert sorted(bulk.search_rect(rect)) == sorted(
            incremental.search_rect(rect))


# --------------------------------------------------------------------------- #
# DR-tree overlay bootstrap
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("count", [1, 2, 5, 40, 300])
def test_bootstrap_overlay_is_legal(count):
    sim = DRTreeSimulation(DRTreeConfig(2, 4), seed=1)
    bootstrap_overlay(sim, list(uniform_subscriptions(count, seed=1)))
    report = sim.verify()
    assert report.is_legal, report.violations
    assert report.peer_count == count


def test_build_stable_tree_bulk_equivalent_legality():
    subs = list(uniform_subscriptions(120, seed=8))
    joined = build_stable_tree(subs, DRTreeConfig(2, 4), seed=8, bulk=False)
    bulk = build_stable_tree(subs, DRTreeConfig(2, 4), seed=8, bulk=True)
    assert joined.verify().is_legal
    assert bulk.verify().is_legal
    assert len(bulk.live_peers()) == len(joined.live_peers())


def test_build_stable_tree_bulk_2000_peers_is_legal():
    subs = list(uniform_subscriptions(2000, seed=0))
    sim = build_stable_tree(subs, DRTreeConfig(2, 4), seed=0, bulk=True)
    report = sim.verify()
    assert report.is_legal, report.violations
    assert report.peer_count == 2000


def test_bulk_threshold_selects_fast_path_automatically():
    subs = list(uniform_subscriptions(BULK_THRESHOLD, seed=4))
    sim = build_stable_tree(subs, DRTreeConfig(2, 4), seed=4)
    report = sim.verify()
    assert report.is_legal, report.violations
    # The join protocol was never exercised: no join requests were sent.
    assert sim.metrics.counter("join.requests") == 0


def test_bulk_built_tree_disseminates_without_false_negatives():
    subs = list(uniform_subscriptions(400, seed=6))
    sim = build_stable_tree(subs, DRTreeConfig(2, 4), seed=6, bulk=True)
    recorder = record_sim_deliveries(sim)
    event = Event({"attr0": 0.31, "attr1": 0.64}, event_id="probe")
    root = sim.root()
    assert root is not None
    sim.publish(root.process_id, event)
    matching = {p.process_id for p in sim.live_peers()
                if p.subscription.matches(event)}
    assert matching <= recorder.receivers("probe")


def test_bulk_built_tree_survives_churn():
    subs = list(uniform_subscriptions(200, seed=7))
    sim = build_stable_tree(subs, DRTreeConfig(2, 4), seed=7, bulk=True)
    rng = random.Random(3)
    victims = rng.sample([p.process_id for p in sim.live_peers()], 20)
    for index, victim in enumerate(victims):
        if index % 2:
            sim.crash(victim)
        else:
            sim.leave(victim, settle=False)
    report = sim.stabilize(max_rounds=60)
    assert report.is_legal, report.violations
    assert report.peer_count == 180
