"""Unit and property-based tests for repro.spatial.rectangle."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.rectangle import Point, Rect


# --------------------------------------------------------------------------- #
# Construction
# --------------------------------------------------------------------------- #


def test_point_holds_coordinates():
    point = Point(1.0, 2.5)
    assert point.coords == (1.0, 2.5)
    assert point.dimensions == 2
    assert point[0] == 1.0
    assert list(point) == [1.0, 2.5]


def test_point_accepts_sequence():
    point = Point((3, 4))
    assert point.coords == (3.0, 4.0)


def test_point_as_rect_is_degenerate():
    rect = Point(1.0, 2.0).as_rect()
    assert rect.lower == rect.upper == (1.0, 2.0)
    assert rect.is_degenerate()


def test_rect_requires_matching_dimensions():
    with pytest.raises(ValueError):
        Rect((0.0,), (1.0, 2.0))


def test_rect_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        Rect((1.0, 0.0), (0.0, 1.0))


def test_rect_rejects_nan():
    with pytest.raises(ValueError):
        Rect((math.nan, 0.0), (1.0, 1.0))


def test_rect_rejects_empty():
    with pytest.raises(ValueError):
        Rect((), ())


def test_rect_from_points():
    rect = Rect.from_points([Point(0, 0), Point(2, 1), Point(1, 3)])
    assert rect.lower == (0.0, 0.0)
    assert rect.upper == (2.0, 3.0)


def test_rect_from_points_empty_raises():
    with pytest.raises(ValueError):
        Rect.from_points([])


def test_rect_from_intervals():
    rect = Rect.from_intervals([(0, 1), (2, 5)])
    assert rect.interval(0) == (0.0, 1.0)
    assert rect.interval(1) == (2.0, 5.0)


def test_unbounded_rect_contains_everything():
    rect = Rect.unbounded(2)
    assert rect.contains_point(Point(1e12, -1e12))
    assert rect.area() == math.inf


# --------------------------------------------------------------------------- #
# Measures
# --------------------------------------------------------------------------- #


def test_area_and_margin():
    rect = Rect((0, 0), (2, 3))
    assert rect.area() == 6.0
    assert rect.margin() == 5.0
    assert rect.extent(0) == 2.0
    assert rect.extent(1) == 3.0


def test_center():
    rect = Rect((0, 0), (2, 4))
    assert rect.center.coords == (1.0, 2.0)


def test_degenerate_rect_has_zero_area():
    rect = Rect((1, 1), (1, 5))
    assert rect.area() == 0.0
    assert not rect.is_degenerate()
    assert Rect((1, 1), (1, 1)).is_degenerate()


# --------------------------------------------------------------------------- #
# Relations
# --------------------------------------------------------------------------- #


def test_contains_point_inclusive_bounds():
    rect = Rect((0, 0), (1, 1))
    assert rect.contains_point(Point(0, 0))
    assert rect.contains_point(Point(1, 1))
    assert rect.contains_point(Point(0.5, 0.5))
    assert not rect.contains_point(Point(1.5, 0.5))


def test_contains_point_dimension_mismatch():
    with pytest.raises(ValueError):
        Rect((0, 0), (1, 1)).contains_point(Point(0.5))


def test_contains_rect():
    outer = Rect((0, 0), (10, 10))
    inner = Rect((2, 2), (5, 5))
    assert outer.contains_rect(inner)
    assert not inner.contains_rect(outer)
    assert outer.contains_rect(outer)


def test_intersects():
    a = Rect((0, 0), (2, 2))
    b = Rect((1, 1), (3, 3))
    c = Rect((5, 5), (6, 6))
    assert a.intersects(b)
    assert b.intersects(a)
    assert not a.intersects(c)
    # Touching boundaries count as intersecting.
    d = Rect((2, 0), (4, 2))
    assert a.intersects(d)


def test_relation_dimension_mismatch():
    with pytest.raises(ValueError):
        Rect((0, 0), (1, 1)).intersects(Rect((0,), (1,)))


# --------------------------------------------------------------------------- #
# Combinations
# --------------------------------------------------------------------------- #


def test_union():
    a = Rect((0, 0), (1, 1))
    b = Rect((2, 2), (3, 3))
    union = a.union(b)
    assert union.lower == (0.0, 0.0)
    assert union.upper == (3.0, 3.0)


def test_union_of_many():
    rects = [Rect((i, i), (i + 1, i + 1)) for i in range(4)]
    union = Rect.union_of(rects)
    assert union.lower == (0.0, 0.0)
    assert union.upper == (4.0, 4.0)


def test_union_of_empty_raises():
    with pytest.raises(ValueError):
        Rect.union_of([])
    with pytest.raises(ValueError):
        Rect.union_of(iter(()))


def test_union_of_mixed_dimensions_raises():
    flat, solid = Rect((0, 0), (1, 1)), Rect((0, 0, 0), (1, 1, 1))
    for mixed in ([flat, solid], [solid, flat], [flat, flat, solid]):
        with pytest.raises(ValueError):
            Rect.union_of(mixed)


def test_union_of_single_rect_is_that_rect():
    rect = Rect((0, -math.inf), (2, 3))
    assert Rect.union_of([rect]) == rect


def test_union_of_consumes_a_generator_once():
    pulled = []

    def source():
        for i in range(4):
            pulled.append(i)
            yield Rect((i, -i), (i + 1, 0))

    assert Rect.union_of(source()) == Rect((0, -3), (4, 0))
    assert pulled == [0, 1, 2, 3]


def test_intersection():
    a = Rect((0, 0), (2, 2))
    b = Rect((1, 1), (3, 3))
    overlap = a.intersection(b)
    assert overlap is not None
    assert overlap.lower == (1.0, 1.0)
    assert overlap.upper == (2.0, 2.0)
    assert a.intersection_area(b) == 1.0


def test_intersection_disjoint_is_none():
    a = Rect((0, 0), (1, 1))
    b = Rect((2, 2), (3, 3))
    assert a.intersection(b) is None
    assert a.intersection_area(b) == 0.0


def test_enlargement():
    a = Rect((0, 0), (1, 1))
    b = Rect((1, 1), (2, 2))
    assert a.enlargement(b) == pytest.approx(3.0)
    assert a.enlargement(Rect((0.2, 0.2), (0.8, 0.8))) == 0.0


def test_waste():
    a = Rect((0, 0), (1, 1))
    b = Rect((2, 2), (3, 3))
    # union area 9, each area 1 => waste 7
    assert a.waste(b) == pytest.approx(7.0)


def test_as_tuple_round_trip():
    rect = Rect((0, 1), (2, 3))
    lower, upper = rect.as_tuple()
    assert Rect(lower, upper) == rect


# --------------------------------------------------------------------------- #
# Property-based tests
# --------------------------------------------------------------------------- #

coords = st.floats(min_value=-1000, max_value=1000, allow_nan=False,
                   allow_infinity=False)


@st.composite
def rects(draw, dims=2):
    lows = [draw(coords) for _ in range(dims)]
    highs = [draw(coords) for _ in range(dims)]
    lower = tuple(min(a, b) for a, b in zip(lows, highs))
    upper = tuple(max(a, b) for a, b in zip(lows, highs))
    return Rect(lower, upper)


@given(rects(), rects())
@settings(max_examples=200, deadline=None)
def test_union_contains_both(a, b):
    union = a.union(b)
    assert union.contains_rect(a)
    assert union.contains_rect(b)


@given(rects(), rects())
@settings(max_examples=200, deadline=None)
def test_union_is_commutative(a, b):
    assert a.union(b) == b.union(a)


@given(rects(), rects())
@settings(max_examples=200, deadline=None)
def test_enlargement_is_non_negative(a, b):
    assert a.enlargement(b) >= 0.0


@given(rects(), rects())
@settings(max_examples=200, deadline=None)
def test_intersection_is_contained_in_both(a, b):
    overlap = a.intersection(b)
    if overlap is not None:
        assert a.contains_rect(overlap)
        assert b.contains_rect(overlap)


@given(rects(), rects())
@settings(max_examples=200, deadline=None)
def test_containment_implies_intersection(a, b):
    if a.contains_rect(b):
        assert a.intersects(b)
        assert a.intersection_area(b) == pytest.approx(b.area())


@given(rects())
@settings(max_examples=100, deadline=None)
def test_union_with_self_is_identity(a):
    assert a.union(a) == a
    assert a.enlargement(a) == 0.0


@given(rects(), rects(), rects())
@settings(max_examples=100, deadline=None)
def test_union_is_associative(a, b, c):
    assert a.union(b).union(c) == a.union(b.union(c))


@given(rects())
@settings(max_examples=100, deadline=None)
def test_center_is_inside(a):
    assert a.contains_point(a.center)


#: Bounds as MBRs really have them: finite, unbounded on either side, and
#: repeated values (so degenerate rectangles and ties are drawn often).
wide_coords = st.one_of(
    coords, st.sampled_from([-math.inf, math.inf, 0.0, -0.0, 1.0]))


@st.composite
def wide_rects(draw, dims):
    lows = [draw(wide_coords) for _ in range(dims)]
    highs = [draw(st.one_of(st.just(low), wide_coords)) for low in lows]
    return Rect(tuple(map(min, lows, highs)), tuple(map(max, lows, highs)))


@given(st.integers(1, 3).flatmap(
    lambda dims: st.lists(wide_rects(dims), min_size=1, max_size=8)))
@settings(max_examples=300, deadline=None)
def test_union_of_equals_the_left_fold_of_union(group):
    folded = group[0]
    for rect in group[1:]:
        folded = folded.union(rect)
    union = Rect.union_of(group)
    assert union == folded
    # ``==`` cannot tell -0.0 from 0.0; the bounds are the same floats too.
    assert repr(union.as_tuple()) == repr(folded.as_tuple())
