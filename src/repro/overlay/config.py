"""Protocol configuration for the DR-tree overlay."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DRTreeConfig:
    """Tuning knobs of the DR-tree protocol.

    Attributes
    ----------
    min_children:
        The paper's ``m`` — minimum number of children of a non-root internal
        node.
    max_children:
        The paper's ``M`` — maximum number of children of an internal node.
        The paper requires ``M >= 2 m`` so that a split always produces two
        valid groups.
    split_method:
        ``"linear"``, ``"quadratic"`` or ``"rstar"`` (Section 3.2).
    stabilization_period:
        Interval between two periodic stabilization rounds at a peer, in
        simulated time units (the paper's "timeout"): the period of each
        peer's background stabilizer on ``drtree:net`` (the simulated
        engines run driven rounds instead), and half the join retry's wait.
    child_staleness_rounds:
        Number of stabilization rounds without hearing from a child before the
        parent discards it (implements the paper's discard of children whose
        parent variable points elsewhere, plus crash detection).
    parent_silence_rounds:
        The child-side mirror of ``child_staleness_rounds``: number of
        consecutive unanswered PARENT_QUERY rounds before an instance declares
        itself orphaned and re-joins.  Both silence budgets trade repair
        latency against false alarms — on a lossy network a round-trip fails
        with probability ``q``, so spurious re-joins arrive at roughly
        ``N * q**k`` per round across ``N`` links; raise ``k`` when sustained
        loss would otherwise out-churn the repairs.
    message_latency:
        Default network latency used by the convenience builder.
    """

    min_children: int = 2
    max_children: int = 4
    split_method: str = "quadratic"
    stabilization_period: float = 10.0
    child_staleness_rounds: int = 3
    parent_silence_rounds: int = 2
    message_latency: float = 1.0

    def __post_init__(self) -> None:
        if self.min_children < 2:
            raise ValueError("min_children (m) must be at least 2")
        if self.max_children < 2 * self.min_children:
            raise ValueError(
                f"max_children (M={self.max_children}) must be at least twice "
                f"min_children (m={self.min_children})"
            )
        if self.split_method not in ("linear", "quadratic", "rstar"):
            raise ValueError(f"unknown split method {self.split_method!r}")
        if self.stabilization_period <= 0:
            raise ValueError("stabilization_period must be positive")
        if self.child_staleness_rounds < 1:
            raise ValueError("child_staleness_rounds must be at least 1")
        if self.parent_silence_rounds < 1:
            raise ValueError("parent_silence_rounds must be at least 1")
