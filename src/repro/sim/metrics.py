"""Counters, histograms and per-run metric registries.

Experiments read all their quantitative outputs (message counts, hop counts,
false positives, recovery rounds, ...) from a :class:`MetricsRegistry` so the
harness can print uniform tables.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple


@dataclass
class Histogram:
    """A simple value accumulator with summary statistics."""

    values: List[float] = field(default_factory=list)

    def record(self, value: float) -> None:
        """Add an observation."""
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.values else 0.0

    @property
    def minimum(self) -> float:
        return min(self.values) if self.values else 0.0

    @property
    def maximum(self) -> float:
        return max(self.values) if self.values else 0.0

    def percentile(self, fraction: float) -> float:
        """Linear-interpolated percentile, ``fraction`` in [0, 1]."""
        if not self.values:
            return 0.0
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        ordered = sorted(self.values)
        if len(ordered) == 1:
            return ordered[0]
        position = fraction * (len(ordered) - 1)
        low = math.floor(position)
        high = math.ceil(position)
        if low == high:
            return ordered[low]
        weight = position - low
        return ordered[low] * (1 - weight) + ordered[high] * weight

    @property
    def stdev(self) -> float:
        if len(self.values) < 2:
            return 0.0
        mean = self.mean
        variance = sum((v - mean) ** 2 for v in self.values) / (len(self.values) - 1)
        return math.sqrt(variance)


class MetricsRegistry:
    """A named collection of counters and histograms for one simulation run."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = defaultdict(float)
        self._histograms: Dict[str, Histogram] = defaultdict(Histogram)

    # Counters ---------------------------------------------------------- #

    def increment(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name``."""
        self._counters[name] += amount

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0.0)

    def counters(self) -> Dict[str, float]:
        """A copy of all counters."""
        return dict(self._counters)

    # Histograms -------------------------------------------------------- #

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` in histogram ``name``."""
        self._histograms[name].record(value)

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on demand)."""
        return self._histograms[name]

    def histograms(self) -> Dict[str, Histogram]:
        """A copy of the histogram mapping."""
        return dict(self._histograms)

    # Convenience ------------------------------------------------------- #

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's observations into this one."""
        for name, value in other._counters.items():
            self._counters[name] += value
        for name, histogram in other._histograms.items():
            self._histograms[name].values.extend(histogram.values)

    def snapshot(self) -> Dict[str, float]:
        """Flattened view: counters plus per-histogram mean/count."""
        result: Dict[str, float] = dict(self._counters)
        for name, histogram in self._histograms.items():
            result[f"{name}.mean"] = histogram.mean
            result[f"{name}.count"] = histogram.count
        return result


def mean_and_confidence(
    values: Iterable[float], z: float = 1.96
) -> Tuple[float, float]:
    """Mean and half-width of the normal-approximation confidence interval."""
    data = list(values)
    if not data:
        return 0.0, 0.0
    mean = sum(data) / len(data)
    if len(data) < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in data) / (len(data) - 1)
    half_width = z * math.sqrt(variance / len(data))
    return mean, half_width
