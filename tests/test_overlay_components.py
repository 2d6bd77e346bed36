"""Unit tests for the DR-tree building blocks: config, state, election, oracle."""

from __future__ import annotations

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
from repro.sim.rng import RandomStreams
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
    oracle = ContactOracle(policy="root")
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


@given(policy=st.sampled_from(["root", "random"]),
       members=st.sets(_oracle_ids),
       hint=st.none() | _oracle_ids,
       advertised=st.dictionaries(_oracle_ids,
                                  st.floats(0.0, 4.0, allow_nan=False)),
       draws=st.integers(0, 3),
       departed=_oracle_ids,
       seed=st.integers(0, 2**32))
def test_oracle_forget_is_the_three_step_departure(policy, members, hint,
                                                   advertised, draws,
                                                   departed, seed):
    def oracle_in_state():
        oracle = ContactOracle(policy=policy, streams=RandomStreams(seed))
        for member in sorted(members):
            oracle.add_member(member)
        oracle.set_root_hint(hint)
        for peer_id, area in advertised.items():
            oracle.advertise_root(peer_id, area)
        for _ in range(draws):
            oracle.contact()
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
    assert oracle._rng.getstate() == reference._rng.getstate()


def test_oracle_random_policy_returns_member():
    oracle = ContactOracle(policy="random")
    for name in ("a", "b", "c"):
        oracle.add_member(name)
    for _ in range(10):
        assert oracle.contact(exclude="a") in {"b", "c"}


def test_oracle_rejects_unknown_policy():
    with pytest.raises(ValueError):
        ContactOracle(policy="bogus")
