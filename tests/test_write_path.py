"""The write path's host cost, counted and never timed.

A membership op pays for stabilization rounds.  These tests pin what a round
may cost the *host* without touching what it computes: ``Compute_MBR``
(Figure 7) is memoized per instance on the values it folds.  That
``stabilize`` runs the omniscient verifier only where it reads the answer is
part of the engine-wide contract in ``tests/test_stabilize_contract.py``.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SystemSpec
from repro.overlay import DRTreeConfig, build_stable_tree
from repro.overlay.state import ChildInfo, LevelState
from repro.spatial.filters import make_space
from repro.spatial.rectangle import Rect
from repro.workloads import uniform_subscriptions
from tests.conftest import random_subscriptions


def fresh_mbr(instance: LevelState, filter_rect: Rect) -> Rect:
    """``Compute_MBR`` with nothing remembered: the memo's reference."""
    if instance.level == 0 or not instance.children:
        return filter_rect
    return Rect.union_of([info.mbr for info in instance.children.values()])


def assert_no_stale_union(sim) -> None:
    for peer in sim.live_peers():
        for instance in peer.instances.values():
            assert (instance.computed_mbr(peer.filter_rect)
                    == fresh_mbr(instance, peer.filter_rect))


def legal_tree(peers: int, seed: int = 1):
    population = uniform_subscriptions(peers, seed=seed)
    sim = build_stable_tree(list(population), seed=seed)
    assert sim.verify().is_legal
    return sim


# --------------------------------------------------------------------------- #
# The memo can never be stale
# --------------------------------------------------------------------------- #

_unit = st.floats(0.0, 1.0, allow_nan=False)
_rects = st.tuples(_unit, _unit, _unit, _unit).map(
    lambda c: Rect((min(c[0], c[2]), min(c[1], c[3])),
                   (max(c[0], c[2]), max(c[1], c[3]))))
_edits = st.lists(st.one_of(
    st.tuples(st.sampled_from(
        ["add_child", "remove_child", "set_item", "del_item", "new_dict",
         "assign_mbr"]), st.integers(0, 99), st.integers(0, 99), _rects),
    st.tuples(st.just("corrupt"), st.sampled_from([0.2, 0.6, 1.0])),
    st.tuples(st.just("round")),
), min_size=1, max_size=10)


@given(_edits)
@settings(max_examples=60, deadline=None)
def test_computed_mbr_equals_a_fresh_union_after_any_edit(edits):
    sim = build_stable_tree(random_subscriptions(make_space("x", "y"), 14,
                                                 seed=3),
                            DRTreeConfig(2, 4), seed=3)
    assert_no_stale_union(sim)  # every memo is filled from here on
    for edit in edits:
        if edit[0] == "corrupt":
            sim.corrupt(fraction=edit[1])  # MemoryCorruptor.corrupt_random_peers
        elif edit[0] == "round":
            sim.run_round()
        else:
            kind, which, who, rect = edit
            internal = [instance for peer in sim.live_peers()
                        for level, instance in sorted(peer.instances.items())
                        if level > 0]
            if not internal:
                continue
            instance = internal[which % len(internal)]
            names = sorted(instance.children) + ["ghost"]
            name = names[who % len(names)]
            if kind == "add_child":
                instance.add_child(name, rect)
            elif kind == "remove_child":
                instance.remove_child(name)
            elif kind == "set_item":
                instance.children[name] = ChildInfo(mbr=rect)
            elif kind == "del_item":
                instance.children.pop(name, None)
            elif kind == "new_dict":
                instance.children = {name: ChildInfo(mbr=rect)}
            elif name in instance.children:
                instance.children[name].mbr = rect
        assert_no_stale_union(sim)


def test_the_memo_is_not_pickled_and_is_rebuilt_after_a_restore():
    filter_rect = Rect((0, 0), (0.1, 0.1))
    state = LevelState(level=1, mbr=filter_rect)
    state.add_child("a", Rect((0, 0), (1, 1)))
    state.add_child("b", Rect((2, 2), (3, 3)))
    cold = pickle.dumps(state)
    assert state.computed_mbr(filter_rect) == Rect((0, 0), (3, 3))
    assert state._union_memo is not None
    assert pickle.dumps(state) == cold

    restored = pickle.loads(cold)
    assert restored == state and restored._union_memo is None
    restored.children["b"].mbr = Rect((2, 2), (3, 9))
    assert restored.computed_mbr(filter_rect) == Rect((0, 0), (3, 9))


def test_a_broker_snapshot_carries_no_memo():
    population = uniform_subscriptions(600, seed=4)
    broker = SystemSpec(population.space, backend="drtree:batched",
                        seed=4).build()
    broker.subscribe_all(list(population))
    instances = [instance for peer in broker.simulation.live_peers()
                 for instance in peer.instances.values()]
    assert sum(instance._union_memo is not None for instance in instances) > 100
    warm = broker.snapshot()
    for instance in instances:
        instance._union_memo = None
    assert broker.snapshot() == warm

    restored = SystemSpec(population.space, backend="drtree:batched",
                          seed=4).build()
    restored.restore(warm)
    assert_no_stale_union(restored.simulation)
    assert restored.stabilize().is_legal


# --------------------------------------------------------------------------- #
# A refresh round folds nothing and builds nothing
# --------------------------------------------------------------------------- #


def test_a_refresh_round_on_a_legal_tree_never_folds_an_mbr(monkeypatch):
    sim = legal_tree(600)
    instances = sum(len(peer.instances) for peer in sim.live_peers())
    queries = sim.metrics.counter("network.messages.PARENT_QUERY")
    unions, built = [], []
    real_union_of = Rect.union_of.__func__
    real_post_init = Rect.__post_init__
    monkeypatch.setattr(Rect, "union_of", classmethod(
        lambda cls, rects: unions.append(1) or real_union_of(cls, rects)))
    monkeypatch.setattr(Rect, "__post_init__",
                        lambda rect: built.append(1) or real_post_init(rect))

    sim.run_round()

    # The round did its protocol work: every non-root instance asked its
    # parent, and every parent answered from what it had cached.
    assert (sim.metrics.counter("network.messages.PARENT_QUERY") - queries
            >= instances - len(sim.live_peers()))
    assert unions == []
    assert built == []  # not one Rect constructed, let alone one per instance

    # The verifier is outside the protocol and folds on its own account.
    assert sim.verify().is_legal
    assert unions
