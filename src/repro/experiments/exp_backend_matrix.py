"""BM — the backend matrix: one workload, every registered broker.

The paper's E10 comparison, re-expressed as a sweep over the unified
:class:`~repro.api.broker.Broker` protocol: the same mixed subscription
population and the same half-targeted/half-uniform event stream are pushed
through **every** backend the registry knows — the DR-tree on each
registered dissemination engine (``drtree:classic``, ``drtree:batched``,
plus whatever plugs in next) and the four analytic baselines — and the
resulting delivery-accuracy/message-cost table falls out of one loop over
:func:`repro.api.backend_names`.

Because every system is built from the same
:class:`~repro.api.spec.SystemSpec` and audited by the same
:class:`~repro.pubsub.accounting.DeliveryAccounting`, the rows are directly
comparable: a new backend registered with
:func:`repro.api.register_backend` appears in this table with zero changes
here.

``--workload <family>`` swaps the toy stream for a synthesized
production-shape workload (:mod:`repro.workloads.synth`, see
``docs/workloads.md``): every backend consumes the byte-identical streamed
op sequence — bulk join, flash crowds, mobility moves, diurnal Zipf
publications — and the scenario *asserts* that all ``drtree:*`` engines
produced the identical delivered-event set (a SHA-256 digest column makes
the comparison visible).  ``--backends`` restricts the sweep, which is how
the 10k-peer CI leg keeps the slow analytic baselines out of the loop::

    python -m repro run backend_matrix --workload zipf-diurnal \\
        --peers 10000 --events 2000 --backends drtree:classic,drtree:sharded

The scenario is *trace-replayable*: each backend's run is one segment of
the recorded trace (the first multi-backend use of the multi-segment trace
format), so ``repro run backend_matrix --record t.jsonl`` followed by
``repro run --trace t.jsonl`` re-verifies the whole matrix bit for bit.
"""

from __future__ import annotations

from typing import Any, List

from repro.api.registry import (backend_family, backend_metrics_identical,
                                backend_names)
from repro.api.spec import SystemSpec
from repro.experiments.exp_baselines import _comparison_events
from repro.experiments.harness import ExperimentResult
from repro.overlay.config import DRTreeConfig
from repro.runtime.registry import Param, register_scenario
from repro.workloads.subscriptions import mixed_subscriptions
from repro.workloads.synth import FAMILY_NAMES


def _selected_backends(backends: str) -> List[str]:
    if backends == "all":
        return backend_names()
    return backends.split(",")


def _backend_subset(value: Any) -> str:
    """Coerce ``--backends``: ``all`` or a comma-separated backend list."""
    from repro.api.registry import normalize_backend

    text = str(value).strip()
    if text.lower() == "all":
        return "all"
    names = [normalize_backend(part) for part in text.split(",") if part]
    if not names:
        raise ValueError("backends must be 'all' or a comma-separated "
                         "backend list")
    return ",".join(names)


def _row_for(result: ExperimentResult, backend: str, broker,
             **extra: Any) -> None:
    summary = broker.summary()
    result.add_row(
        backend=backend,
        subscribers=len(broker.subscribers()),
        events=int(summary["events"]),
        delivery_rate=round(summary["delivery_rate"], 4),
        false_negatives=int(summary["false_negatives"]),
        fp_rate_pct=round(100 * summary["false_positive_rate"], 2),
        msgs_per_event=round(summary["mean_messages_per_event"], 1),
        mean_hops=round(summary["mean_delivery_hops"], 2),
        max_hops=int(summary["max_delivery_hops"]),
        **extra,
    )


def _run_synthesized(result: ExperimentResult, workload: str,
                     subscribers: int, events_count: int,
                     config: DRTreeConfig, seed: int,
                     backends: List[str]) -> None:
    """The ``--workload`` path: one streamed op sequence, every backend."""
    from repro.spatial.filters import make_space
    from repro.traces.replay import apply_op
    from repro.workloads.synth import (SyntheticWorkload, delivered_digest,
                                       iter_ops)
    from repro.workloads.synth.stream import SYNTH_STABILIZE_ROUNDS

    spec = SyntheticWorkload.from_family(workload, subscribers=subscribers,
                                         events=events_count, seed=seed)
    drtree: dict = {}
    ops_applied = 0
    for backend in backends:
        broker = SystemSpec(space=make_space(*spec.space_names),
                            backend=backend, config=config, seed=seed,
                            stabilize_rounds=SYNTH_STABILIZE_ROUNDS).build()
        try:
            # Regenerated per backend from the spec: the identical byte
            # stream, never materialized as a list.
            ops_applied = 0
            for op in iter_ops(spec):
                apply_op(broker, op)
                ops_applied += 1
            digest = delivered_digest(broker)
            _row_for(result, backend, broker, delivered=digest[:12])
            if backend_family(backend) == "drtree":
                row = {key: value for key, value in result.rows[-1].items()
                       if key != "backend"}
                drtree[backend] = (digest, row,
                                   backend_metrics_identical(backend))
        finally:
            close = getattr(broker, "close", None)
            if close is not None:
                close()
    if len(drtree) > 1:
        # The delivered-event digest must agree across *every* drtree
        # engine; the full metrics row only across the engines whose rows
        # are run-reproducible (drtree:net's message counts include
        # timing-dependent background-stabilizer traffic, so its comparison
        # is relaxed to the digest).
        reference_backend = next(iter(drtree))
        reference_digest, _, _ = drtree[reference_backend]
        reference_row = next(
            (row for _, row, identical in drtree.values() if identical), None)
        relaxed = 0
        for backend, (digest, row, identical) in drtree.items():
            if digest != reference_digest:
                raise RuntimeError(
                    f"synthesized workload diverged across drtree engines: "
                    f"{backend} delivered {digest[:12]} vs "
                    f"{reference_backend} {reference_digest[:12]}")
            if not identical:
                relaxed += 1
            elif reference_row is not None and row != reference_row:
                raise RuntimeError(
                    f"synthesized workload metrics diverged across drtree "
                    f"engines: {backend} row {row!r} vs reference "
                    f"{reference_row!r}")
        result.add_note(
            f"identical delivered-event sets across {len(drtree)} drtree "
            f"engine(s) (digest {reference_digest[:12]})")
        if relaxed:
            result.add_note(
                f"row comparison relaxed to the delivered digest for "
                f"{relaxed} engine(s) whose metrics are not "
                "run-reproducible (see docs/net.md)")
    result.add_note(
        f"workload {spec.family!r}: {ops_applied} streamed op(s) — "
        f"{spec.subscribers} base subscriber(s), {spec.events} event(s) "
        f"over {spec.bins} diurnal bins, {spec.flash_crowds} flash "
        f"crowd(s) x {spec.crowd_size}, {spec.walkers} walker(s)")


@register_scenario(
    "backend_matrix",
    "Backend matrix (all brokers, one workload)",
    description="Sweep one subscription/event workload across every "
                "registered broker backend — DR-tree classic/batched plus "
                "the four baselines — and tabulate delivery accuracy "
                "against message cost through the unified Broker protocol. "
                "--workload <family> streams a synthesized production "
                "workload through every backend instead and asserts "
                "identical delivered-event sets across the drtree engines.",
    params=(
        Param("peers", int, 60, "subscriber count"),
        Param("events", int, 40, "events published per backend"),
        Param("min_children", int, 2, "the paper's m bound"),
        Param("max_children", int, 5, "the paper's M bound"),
        Param("seed", int, 0, "RNG seed"),
        Param("workload", str, "none",
              "synthesized workload family to stream through every backend",
              choices=("none", *FAMILY_NAMES)),
        Param("backends", _backend_subset, "all",
              "comma-separated backend subset to sweep (default: all)"),
    ),
    replayable=True,
)
def backend_matrix(peers: int, events: int, min_children: int,
                   max_children: int, seed: int, workload: str,
                   backends: str) -> ExperimentResult:
    """Run the one workload across every registered backend."""
    result = ExperimentResult(
        "BM", "Backend matrix: delivery accuracy vs message cost")
    config = DRTreeConfig(min_children=min_children, max_children=max_children)
    selected = _selected_backends(backends)

    if workload != "none":
        _run_synthesized(result, workload, peers, events, config, seed,
                         selected)
        return result

    workload_set = mixed_subscriptions(peers, seed=seed)
    subscriptions = list(workload_set)
    stream = _comparison_events(workload_set, events, seed)
    spec = SystemSpec(space=workload_set.space, config=config, seed=seed)

    for backend in selected:
        broker = spec.with_backend(backend).build()
        try:
            broker.subscribe_all(subscriptions)
            broker.publish_many(stream)
            _row_for(result, backend, broker)
        finally:
            close = getattr(broker, "close", None)
            if close is not None:
                close()
    result.add_note(
        f"{len(result.rows)} backends x {len(subscriptions)} subscribers x "
        f"{len(stream)} events, all through the one Broker protocol "
        "(see docs/api.md)")
    result.add_note("the drtree:* rows must agree on every delivery column: "
                    "the engines are outcome-equivalent by construction "
                    "(drtree:net's message counts may include background-"
                    "stabilizer traffic)")
    return result
