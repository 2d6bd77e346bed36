"""Unit tests for the DR-tree building blocks: config, state, election, oracle."""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.overlay.config import DRTreeConfig
from repro.overlay.election import (
    best_set_cover,
    choose_best_child,
    elect_group_parent,
    elect_new_root,
    is_better_cover,
)
from repro.overlay.oracle import ContactOracle
from repro.overlay.state import ChildInfo, LevelState, deserialize_children, serialize_children
from repro.spatial.rectangle import Rect


# --------------------------------------------------------------------------- #
# Config
# --------------------------------------------------------------------------- #


def test_config_defaults_are_valid():
    config = DRTreeConfig()
    assert config.min_children >= 2
    assert config.max_children >= 2 * config.min_children


@pytest.mark.parametrize(
    "kwargs",
    [
        {"min_children": 1},
        {"min_children": 3, "max_children": 5},
        {"split_method": "bogus"},
        {"stabilization_period": 0},
        {"child_staleness_rounds": 0},
        {"parent_silence_rounds": 0},
    ],
)
def test_config_rejects_invalid_values(kwargs):
    with pytest.raises(ValueError):
        DRTreeConfig(**kwargs)


# --------------------------------------------------------------------------- #
# LevelState
# --------------------------------------------------------------------------- #


def test_level_state_leaf_mbr_is_filter():
    filter_rect = Rect((0, 0), (1, 1))
    state = LevelState(level=0, mbr=filter_rect)
    assert state.is_leaf
    assert state.computed_mbr(filter_rect) == filter_rect


def test_level_state_internal_mbr_is_children_union():
    filter_rect = Rect((0, 0), (0.1, 0.1))
    state = LevelState(level=1, mbr=filter_rect)
    state.add_child("a", Rect((0, 0), (1, 1)))
    state.add_child("b", Rect((2, 2), (3, 3)))
    union = state.computed_mbr(filter_rect)
    assert union.lower == (0.0, 0.0)
    assert union.upper == (3.0, 3.0)


def test_level_state_internal_without_children_falls_back_to_filter():
    filter_rect = Rect((0, 0), (1, 1))
    state = LevelState(level=2, mbr=Rect((5, 5), (6, 6)))
    assert state.computed_mbr(filter_rect) == filter_rect


def test_level_state_add_refresh_remove_child():
    state = LevelState(level=1, mbr=Rect((0, 0), (1, 1)))
    state.add_child("a", Rect((0, 0), (1, 1)), child_count=2, round_number=1)
    state.add_child("a", Rect((0, 0), (2, 2)), child_count=3, round_number=5)
    assert state.children["a"].child_count == 3
    assert state.children["a"].last_seen_round == 5
    assert state.remove_child("a")
    assert not state.remove_child("a")
    assert state.child_ids() == []


def test_children_serialization_round_trip():
    children = {
        "a": ChildInfo(mbr=Rect((0, 0), (1, 1)), child_count=3, underloaded=True),
        "b": ChildInfo(mbr=Rect((2, 2), (3, 4)), child_count=0),
    }
    payload = serialize_children(children)
    restored = deserialize_children(payload, round_number=7)
    assert set(restored) == {"a", "b"}
    assert restored["a"].mbr == children["a"].mbr
    assert restored["a"].child_count == 3
    assert restored["a"].underloaded is True
    assert restored["b"].underloaded is False
    assert restored["a"].last_seen_round == 7


# --------------------------------------------------------------------------- #
# Election helpers
# --------------------------------------------------------------------------- #


def test_is_better_cover_is_strict():
    assert is_better_cover(2.0, 1.0)
    assert not is_better_cover(1.0, 1.0)
    assert not is_better_cover(0.5, 1.0)


def test_elect_group_parent_prefers_largest_area():
    group = {
        "small": Rect((0, 0), (1, 1)),
        "large": Rect((0, 0), (3, 3)),
        "medium": Rect((0, 0), (2, 2)),
    }
    assert elect_group_parent(group) == "large"


def test_elect_group_parent_breaks_ties_by_id():
    group = {"b": Rect((0, 0), (1, 1)), "a": Rect((5, 5), (6, 6))}
    assert elect_group_parent(group) == "a"


def test_elect_group_parent_empty_raises():
    with pytest.raises(ValueError):
        elect_group_parent({})


def test_elect_new_root():
    left = ("x", Rect((0, 0), (2, 2)))
    right = ("y", Rect((0, 0), (1, 1)))
    assert elect_new_root(left, right) == "x"
    assert elect_new_root(right, left) == "x"


def test_best_set_cover_prefers_covering_candidate():
    merged = Rect((0, 0), (4, 4))
    wide = ("wide", Rect((0, 0), (4, 4)))
    narrow = ("narrow", Rect((0, 0), (1, 1)))
    assert best_set_cover(merged, wide, narrow) == "wide"
    assert best_set_cover(merged, narrow, wide) == "wide"


def test_best_set_cover_tie_breaks_by_id():
    merged = Rect((0, 0), (4, 4))
    a = ("a", Rect((0, 0), (2, 2)))
    b = ("b", Rect((2, 2), (4, 4)))
    assert best_set_cover(merged, a, b) == "a"


def test_choose_best_child_minimizes_enlargement():
    children = {
        "near": Rect((0, 0), (2, 2)),
        "far": Rect((10, 10), (12, 12)),
    }
    target = Rect((1, 1), (1.5, 1.5))
    assert choose_best_child(children, target) == "near"


def test_choose_best_child_tie_breaks_on_area_then_id():
    children = {
        "big": Rect((0, 0), (4, 4)),
        "small": Rect((0, 0), (2, 2)),
    }
    target = Rect((0.5, 0.5), (1, 1))
    # Both need zero enlargement; the smaller area wins.
    assert choose_best_child(children, target) == "small"
    with pytest.raises(ValueError):
        choose_best_child({}, target)


# --------------------------------------------------------------------------- #
# Oracle
# --------------------------------------------------------------------------- #


def test_oracle_contact_empty_is_none():
    oracle = ContactOracle()
    assert oracle.contact() is None


def test_oracle_contact_excludes_requester():
    oracle = ContactOracle()
    oracle.add_member("a")
    assert oracle.contact(exclude="a") is None
    oracle.add_member("b")
    assert oracle.contact(exclude="a") == "b"


def test_oracle_root_policy_prefers_advertised_root():
    oracle = ContactOracle()
    oracle.add_member("a")
    oracle.add_member("b")
    oracle.advertise_root("b", area=2.0)
    assert oracle.contact() == "b"
    assert oracle.best_root() == "b"


def test_oracle_best_root_prefers_largest_area_then_id():
    oracle = ContactOracle()
    oracle.add_member("a")
    oracle.add_member("b")
    oracle.advertise_root("a", 1.0)
    oracle.advertise_root("b", 5.0)
    assert oracle.best_root() == "b"
    oracle.advertise_root("a", 5.0)
    assert oracle.best_root() == "a"
    oracle.withdraw_root("a")
    assert oracle.best_root() == "b"


def test_oracle_remove_member_clears_advertisement():
    oracle = ContactOracle()
    oracle.add_member("a")
    oracle.advertise_root("a", 1.0)
    oracle.set_root_hint("a")
    oracle.remove_member("a")
    assert oracle.best_root() is None
    assert oracle.contact() is None
    assert len(oracle) == 0


_oracle_ids = st.sampled_from(["a", "b", "c", "d", "e"])


@given(members=st.sets(_oracle_ids),
       hint=st.none() | _oracle_ids,
       advertised=st.dictionaries(_oracle_ids,
                                  st.floats(0.0, 4.0, allow_nan=False)),
       departed=_oracle_ids)
def test_oracle_forget_is_the_three_step_departure(members, hint, advertised,
                                                   departed):
    def oracle_in_state():
        oracle = ContactOracle()
        for member in sorted(members):
            oracle.add_member(member)
        oracle.set_root_hint(hint)
        for peer_id, area in advertised.items():
            oracle.advertise_root(peer_id, area)
        return oracle

    # The sequence every departure used to spell out by hand.
    reference = oracle_in_state()
    reference.remove_member(departed)
    if reference.contact(exclude=departed) is None:
        reference.set_root_hint(None)

    oracle = oracle_in_state()
    oracle.forget(departed)

    assert oracle.members() == reference.members()
    assert oracle._root_hint == reference._root_hint
    assert oracle._advertised_roots == reference._advertised_roots


class SortedListOracle:
    """The contact rule spelled out over a sorted member list."""

    def __init__(self):
        self.members, self.hint, self.roots = set(), None, {}

    def remove_member(self, peer_id):
        self.members.discard(peer_id)
        self.roots.pop(peer_id, None)
        if self.hint == peer_id:
            self.hint = None

    def best_root(self):
        if not self.roots:
            return self.hint
        return min(self.roots, key=lambda pid: (-self.roots[pid], pid))

    def contact(self, exclude):
        candidates = [pid for pid in sorted(self.members) if pid != exclude]
        if not candidates:
            return None
        for candidate in (self.best_root(), self.hint):
            if candidate in candidates:
                return candidate
        return candidates[0]


_many_ids = st.integers(0, 5).map(lambda n: f"p{n}")
_oracle_op = st.one_of(
    st.tuples(st.just("add"), _many_ids),
    st.tuples(st.just("remove"), _many_ids),
    st.tuples(st.just("forget"), _many_ids),
    st.tuples(st.just("advertise"), _many_ids,
              st.sampled_from([0.5, 1.0, 2.0])),
    st.tuples(st.just("withdraw"), _many_ids),
    st.tuples(st.just("hint"), st.none() | _many_ids),
)


@given(ops=st.lists(_oracle_op, max_size=60))
def test_oracle_answers_like_a_sorted_list_after_any_op_sequence(ops):
    oracle, reference = ContactOracle(), SortedListOracle()
    for op in ops:
        kind, peer_id = op[0], op[1]
        if kind == "add":
            oracle.add_member(peer_id)
            reference.members.add(peer_id)
        elif kind == "remove":
            oracle.remove_member(peer_id)
            reference.remove_member(peer_id)
        elif kind == "forget":
            oracle.forget(peer_id)
            reference.remove_member(peer_id)
            if not reference.members:
                reference.hint = None
        elif kind == "advertise":
            oracle.advertise_root(peer_id, op[2])
            reference.roots[peer_id] = op[2]
        elif kind == "withdraw":
            oracle.withdraw_root(peer_id)
            reference.roots.pop(peer_id, None)
        else:
            oracle.set_root_hint(peer_id)
            reference.hint = peer_id
        assert oracle.best_root() == reference.best_root()
        for exclude in [None, *sorted(reference.members)[:2], peer_id]:
            assert oracle.contact(exclude) == reference.contact(exclude)
        assert oracle.members() == sorted(reference.members)


class _NoIteration(dict):
    def __iter__(self):
        raise AssertionError("contact iterated the membership")

    keys = values = items = __iter__


def test_oracle_contact_never_iterates_the_membership():
    oracle = ContactOracle()
    for name in ("d", "b", "a", "c"):
        oracle.add_member(name)
    for name in ("a", "b"):
        oracle.remove_member(name)
        oracle.add_member(name)  # a re-added id sits in the heap twice
    oracle._members = _NoIteration(oracle._members)
    assert oracle.contact() == "a"
    assert oracle.contact(exclude="a") == "b"
    oracle.set_root_hint("c")
    assert oracle.contact(exclude="a") == "c"
    oracle.advertise_root("d", 1.0)
    assert oracle.contact() == "d"
    assert oracle.contact(exclude="d") == "c"


def test_oracle_heap_does_not_grow_with_churn():
    oracle = ContactOracle()
    oracle.add_member("anchor")
    for cycle in range(1000):
        oracle.add_member(f"p{cycle % 7}")
        oracle.remove_member(f"p{cycle % 7}")
    assert len(oracle._heap) <= 2 * len(oracle) + 64
    assert oracle.contact() == "anchor"


def test_an_oracle_pickled_with_the_random_contact_mode_restores(monkeypatch):
    """Blobs written before the mode went carry ``policy`` and ``_rng``."""
    old = ContactOracle.__new__(ContactOracle)
    old.__dict__.update(policy="root", _rng=random.Random(3),
                        _members={"c": True, "a": True, "b": True},
                        _root_hint="b", _advertised_roots={"c": 2.0})
    monkeypatch.setattr(ContactOracle, "__getstate__",
                        lambda self: dict(self.__dict__))
    blob = pickle.dumps(old)
    monkeypatch.undo()

    restored = pickle.loads(blob)
    assert not hasattr(restored, "policy") and not hasattr(restored, "_rng")
    assert restored.members() == ["a", "b", "c"]
    assert restored.best_root() == "c"
    assert [restored.contact(x) for x in (None, "c", "b")] == ["c", "b", "c"]
    restored.forget("c")
    restored.forget("b")
    assert restored.contact() == "a" and restored.contact("a") is None
    # And a restored oracle pickles without the retired fields.
    assert set(pickle.loads(pickle.dumps(restored)).__dict__) == {
        "_members", "_heap", "_root_hint", "_advertised_roots"}
