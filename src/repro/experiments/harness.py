"""Shared infrastructure of the experiment suite.

Provides the :class:`ExperimentResult` row container and table renderer, the
:func:`size_ladder` sweep helper, and :func:`build_pubsub_system` — the
shared way to turn a generated subscription workload into a live broker on
any registered backend (``backend="drtree:batched"``, ``"flooding"``, ...),
by threading one :class:`~repro.api.spec.SystemSpec` through the backend
registry.  Experiments with bespoke construction needs (mixed spaces,
per-method configs) may still wire ``PubSubSystem`` directly; prefer the
helper for anything workload-shaped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.broker import Broker
    from repro.overlay.config import DRTreeConfig
    from repro.workloads.subscriptions import SubscriptionWorkload


def size_ladder(peers: int, steps: int = 5, floor: int = 16) -> Tuple[int, ...]:
    """A geometric sweep of network sizes ending at ``peers``.

    Used by the sweep scenarios to turn their single typed ``peers``
    parameter into the ladder of sizes the experiment tables plot:
    ``size_ladder(256)`` is ``(16, 32, 64, 128, 256)``, matching the
    historical defaults, while ``size_ladder(5000)`` sweeps up to 5000.
    """
    if peers < 1:
        raise ValueError("peers must be at least 1")
    sizes = {max(floor, peers // (2 ** step)) for step in range(steps)}
    return tuple(sorted(size for size in sizes if size <= max(peers, floor)))


def build_pubsub_system(
    workload: "SubscriptionWorkload",
    config: Optional["DRTreeConfig"] = None,
    seed: int = 0,
    backend: str = "drtree:classic",
    stabilize_rounds: int = 30,
) -> "Broker":
    """Build a populated broker over a subscription workload.

    The workload becomes a :class:`~repro.api.spec.SystemSpec` on
    ``backend`` and every subscription is registered through
    ``subscribe_all`` (on the DR-tree backends that takes the STR bulk-load
    fast path past the bulk threshold, followed by one stabilization).  The
    two DR-tree engines (``drtree:classic``/``drtree:batched``) produce
    identical tree shapes, subscriber ids and delivery outcomes.
    """
    from repro.api.spec import SystemSpec

    system = SystemSpec(space=workload.space, backend=backend, config=config,
                        seed=seed, stabilize_rounds=stabilize_rounds).build()
    system.subscribe_all(workload)
    return system


@dataclass
class ExperimentResult:
    """The outcome of one experiment: an id, a set of rows and free-form notes.

    Rows are ordered dictionaries from column name to value; every row of the
    same experiment shares the same columns so the result can be rendered as
    the table the paper would print.
    """

    experiment_id: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        """Append a row."""
        self.rows.append(dict(values))

    def add_note(self, note: str) -> None:
        """Attach a free-form observation (shown below the table)."""
        self.notes.append(note)

    def column(self, name: str) -> List[object]:
        """All values of one column, in row order."""
        return [row.get(name) for row in self.rows]

    def to_table(self) -> str:
        """Render the rows as a fixed-width text table."""
        return format_table(self.rows, title=f"{self.experiment_id}: {self.title}",
                            notes=self.notes)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_table()


def _format_value(value: object) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e9:
            return f"{int(value)}"
        if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0):
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, object]],
                 title: Optional[str] = None,
                 notes: Optional[Iterable[str]] = None) -> str:
    """Render a list of row dictionaries as an aligned text table."""
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    if not rows:
        lines.append("(no rows)")
    else:
        columns = list(rows[0].keys())
        rendered = [
            {column: _format_value(row.get(column, "")) for column in columns}
            for row in rows
        ]
        widths = {
            column: max(len(column), *(len(r[column]) for r in rendered))
            for column in columns
        }
        header = "  ".join(column.ljust(widths[column]) for column in columns)
        lines.append(header)
        lines.append("  ".join("-" * widths[column] for column in columns))
        for row in rendered:
            lines.append("  ".join(row[column].ljust(widths[column])
                                   for column in columns))
    for note in notes or ():
        lines.append(f"note: {note}")
    return "\n".join(lines)
