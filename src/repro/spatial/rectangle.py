"""Axis-aligned poly-space rectangles and points.

The paper represents every content-based filter as a *poly-space rectangle*
(a hyper-rectangle) and every event as a point.  Minimum bounding rectangles
(MBRs) of tree nodes are also rectangles.  This module provides the value
types and the geometric operations needed by the R-tree and DR-tree code:
area, union, intersection, enlargement, containment and overlap tests.

Rectangles are immutable; all operations return new objects.  A rectangle may
be unbounded in a dimension (the paper: "if one attribute is undefined, then
the corresponding rectangle is unbounded in the associated dimension"), which
is modelled with ``-math.inf`` / ``math.inf`` bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple


@dataclass(frozen=True, order=True)
class Point:
    """A point in a d-dimensional attribute space.

    Events correspond geometrically to points (Section 2.1).
    """

    coords: Tuple[float, ...]

    def __init__(self, *coords: float) -> None:
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
        object.__setattr__(self, "coords", tuple(float(c) for c in coords))

    @property
    def dimensions(self) -> int:
        """Number of dimensions of the point."""
        return len(self.coords)

    def __getitem__(self, index: int) -> float:
        return self.coords[index]

    def __iter__(self):
        return iter(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def as_rect(self) -> "Rect":
        """Return the degenerate rectangle containing only this point."""
        return Rect(self.coords, self.coords)


@dataclass(frozen=True)
class Rect:
    """An axis-aligned hyper-rectangle (poly-space rectangle).

    ``lower`` and ``upper`` are tuples of per-dimension bounds with
    ``lower[i] <= upper[i]``.  Degenerate rectangles (zero extent in some or
    all dimensions) are allowed; they arise when a filter pins an attribute to
    a single value and when points are promoted to rectangles.
    """

    lower: Tuple[float, ...]
    upper: Tuple[float, ...]

    def __post_init__(self) -> None:
        lower = tuple(float(v) for v in self.lower)
        upper = tuple(float(v) for v in self.upper)
        if len(lower) != len(upper):
            raise ValueError(
                f"lower and upper must have the same dimension: "
                f"{len(lower)} != {len(upper)}"
            )
        if not lower:
            raise ValueError("rectangles must have at least one dimension")
        for low, high in zip(lower, upper):
            if math.isnan(low) or math.isnan(high):
                raise ValueError("rectangle bounds may not be NaN")
            if low > high:
                raise ValueError(f"invalid bounds: lower {low} > upper {high}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_points(cls, points: Iterable[Point | Sequence[float]]) -> "Rect":
        """Smallest rectangle containing every point in ``points``."""
        pts = [tuple(p) for p in points]
        if not pts:
            raise ValueError("cannot build a rectangle from no points")
        dims = len(pts[0])
        lower = tuple(min(p[i] for p in pts) for i in range(dims))
        upper = tuple(max(p[i] for p in pts) for i in range(dims))
        return cls(lower, upper)

    @classmethod
    def from_intervals(cls, intervals: Sequence[Tuple[float, float]]) -> "Rect":
        """Build a rectangle from per-dimension ``(low, high)`` intervals."""
        lower = tuple(low for low, _ in intervals)
        upper = tuple(high for _, high in intervals)
        return cls(lower, upper)

    @classmethod
    def unbounded(cls, dimensions: int) -> "Rect":
        """The rectangle covering the whole d-dimensional space."""
        return cls((-math.inf,) * dimensions, (math.inf,) * dimensions)

    @classmethod
    def union_of(cls, rects: Iterable["Rect"]) -> "Rect":
        """Smallest rectangle covering every rectangle in ``rects``.

        This is the paper's MBR computation (``Compute_MBR`` in Figure 7):
        the per-dimension minimum of the lower bounds and maximum of the
        upper bounds of the children, taken in one pass so that only the
        result is constructed (and validated).
        """
        rects = list(rects)
        if not rects:
            raise ValueError("cannot build the union of no rectangles")
        if len(rects) == 1:
            return rects[0]
        lowers = [rect.lower for rect in rects]
        dimensions = set(map(len, lowers))
        if len(dimensions) != 1:
            raise ValueError(f"dimension mismatch: {sorted(dimensions)}")
        return cls(
            tuple(map(min, zip(*lowers))),
            tuple(map(max, zip(*[rect.upper for rect in rects]))),
        )

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #

    @property
    def dimensions(self) -> int:
        """Number of dimensions of the rectangle."""
        return len(self.lower)

    @property
    def center(self) -> Point:
        """Centre point of the rectangle (undefined for unbounded sides)."""
        return Point(*((low + high) / 2.0 for low, high in zip(self.lower, self.upper)))

    def extent(self, dim: int) -> float:
        """Length of the rectangle along dimension ``dim``."""
        return self.upper[dim] - self.lower[dim]

    def interval(self, dim: int) -> Tuple[float, float]:
        """The ``(low, high)`` interval of dimension ``dim``."""
        return (self.lower[dim], self.upper[dim])

    def area(self) -> float:
        """Hyper-volume of the rectangle.

        Unbounded rectangles have infinite area; degenerate rectangles have
        zero area.  The DR-tree root-election rule compares areas, so the
        convention matters: larger area means better coverage.
        """
        result = 1.0
        for low, high in zip(self.lower, self.upper):
            result *= high - low
        return result

    def margin(self) -> float:
        """Sum of the edge lengths (used by the R* split heuristic)."""
        return sum(high - low for low, high in zip(self.lower, self.upper))

    def is_degenerate(self) -> bool:
        """True if the rectangle has zero extent in every dimension."""
        return all(high == low for low, high in zip(self.lower, self.upper))

    # ------------------------------------------------------------------ #
    # Relations
    # ------------------------------------------------------------------ #

    def contains_point(self, point: Point | Sequence[float]) -> bool:
        """True if ``point`` lies inside the rectangle (inclusive bounds)."""
        coords = tuple(point)
        if len(coords) != self.dimensions:
            raise ValueError(
                f"dimension mismatch: rect has {self.dimensions}, point has {len(coords)}"
            )
        return all(
            low <= c <= high for c, low, high in zip(coords, self.lower, self.upper)
        )

    def contains_rect(self, other: "Rect") -> bool:
        """True if ``other`` lies entirely inside this rectangle.

        This is the geometric counterpart of subscription containment
        (S1 ⊒ S2 in the paper).
        """
        self._check_dims(other)
        return all(
            s_low <= o_low and o_high <= s_high
            for s_low, o_low, o_high, s_high in zip(
                self.lower, other.lower, other.upper, self.upper
            )
        )

    def intersects(self, other: "Rect") -> bool:
        """True if the two rectangles overlap (boundaries touching counts)."""
        self._check_dims(other)
        return all(
            s_low <= o_high and o_low <= s_high
            for s_low, s_high, o_low, o_high in zip(
                self.lower, self.upper, other.lower, other.upper
            )
        )

    def _check_dims(self, other: "Rect") -> None:
        if self.dimensions != other.dimensions:
            raise ValueError(
                f"dimension mismatch: {self.dimensions} != {other.dimensions}"
            )

    # ------------------------------------------------------------------ #
    # Combinations
    # ------------------------------------------------------------------ #

    def union(self, other: "Rect") -> "Rect":
        """Smallest rectangle covering both rectangles."""
        self._check_dims(other)
        lower = tuple(min(a, b) for a, b in zip(self.lower, other.lower))
        upper = tuple(max(a, b) for a, b in zip(self.upper, other.upper))
        return Rect(lower, upper)

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlapping rectangle, or ``None`` when the rectangles are disjoint."""
        self._check_dims(other)
        lower = tuple(max(a, b) for a, b in zip(self.lower, other.lower))
        upper = tuple(min(a, b) for a, b in zip(self.upper, other.upper))
        if any(low > high for low, high in zip(lower, upper)):
            return None
        return Rect(lower, upper)

    def intersection_area(self, other: "Rect") -> float:
        """Area of the overlap; zero when the rectangles are disjoint."""
        overlap = self.intersection(other)
        return 0.0 if overlap is None else overlap.area()

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed for this rectangle to also cover ``other``.

        This is the quantity minimized by ``Choose_Best_Child`` when routing a
        join request down the tree ("the child whose MBR needs the less
        adjustment to encompass the filter of the joining subscriber").
        """
        return self.union(other).area() - self.area()

    def waste(self, other: "Rect") -> float:
        """Dead area created by grouping the two rectangles together.

        Used by the linear and quadratic split seed-picking heuristics
        (Guttman 1984): ``area(union) - area(a) - area(b)``.
        """
        return self.union(other).area() - self.area() - other.area()

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #

    def as_tuple(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """Return ``(lower, upper)`` as plain tuples (the paper's notation)."""
        return (self.lower, self.upper)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        intervals = ", ".join(
            f"[{low:g}, {high:g}]" for low, high in zip(self.lower, self.upper)
        )
        return f"Rect({intervals})"
