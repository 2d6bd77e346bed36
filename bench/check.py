"""Output checking that does not go through the layer most likely to change.

The facade audits every delivery against ``repro.pubsub.matching``; an
optimisation of that oracle (ROADMAP open item 1a) would therefore audit
itself.  The benchmark keeps its own copy of the live rectangles, as flat
per-dimension columns of floats, and recomputes every event's intended
audience with a closed-interval containment pass over those columns.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple


class Membership:
    """An immutable snapshot of the live rectangles, column by column."""

    def __init__(self, rects: Dict[str, Tuple[Sequence[float],
                                              Sequence[float]]]) -> None:
        self.names: List[str] = list(rects)
        dimensions = len(next(iter(rects.values()))[0]) if rects else 0
        self.lows = [[rects[name][0][dim] for name in self.names]
                     for dim in range(dimensions)]
        self.highs = [[rects[name][1][dim] for name in self.names]
                      for dim in range(dimensions)]

    def matching(self, point: Sequence[float]) -> Set[str]:
        """Names of the rectangles containing ``point`` (bounds inclusive)."""
        candidates: Iterable[int] = range(len(self.names))
        for low, high, value in zip(self.lows, self.highs, point):
            candidates = [index for index in candidates
                          if low[index] <= value <= high[index]]
        return {self.names[index] for index in candidates}


class Reference:
    """The benchmark's own record of who is subscribed, updated op by op."""

    def __init__(self, subscriptions: Iterable) -> None:
        self._rects = {}
        for subscription in subscriptions:
            self.add(subscription)

    def add(self, subscription) -> None:
        rect = subscription.rect
        self._rects[subscription.name] = (tuple(rect.lower), tuple(rect.upper))

    def remove(self, name: str) -> None:
        del self._rects[name]

    def snapshot(self) -> Membership:
        return Membership(dict(self._rects))


def audit(space_names: Sequence[str],
          published: Sequence[Tuple[Membership, object, object]]
          ) -> List[str]:
    """One message per publication whose outcome is wrong.

    ``published`` holds ``(membership at publish time, event, outcome)``.
    A publication is wrong when it raised (``outcome`` is ``None``), missed
    an intended subscriber, or when the facade's intended set disagrees with
    the benchmark's own containment pass.
    """
    problems = []
    for membership, event, outcome in published:
        if outcome is None:
            problems.append(f"{event.event_id}: publish raised")
            continue
        point = [event.attributes[name] for name in space_names]
        expected = membership.matching(point)
        intended = set(outcome.intended)
        if intended != expected:
            problems.append(
                f"{event.event_id}: facade intended {len(intended)} "
                f"subscribers, reference found {len(expected)}")
        elif not intended <= set(outcome.received):
            problems.append(
                f"{event.event_id}: {len(intended - set(outcome.received))} "
                "false negatives")
    return problems
