"""Replaying recorded traces and the canonical delivery-metrics row.

:func:`execute_trace` rebuilds every system a trace describes (same attribute
space, same backend, same configuration, same master seed) and re-applies the
recorded operations in capture order.  Because every broker is a
deterministic function of (spec, operation sequence), the replay reproduces
the original run bit for bit — and the function *checks* that: each
segment's re-derived :func:`delivery_metrics_row` is compared against the
``expect`` row captured at recording time, and any divergence raises
:class:`~repro.traces.errors.TraceReplayError`.

The backend is replay-selectable: ``backend="drtree:batched"`` (or any name
from :mod:`repro.api`) overrides the recorded backend of every segment.
Within the DR-tree family the engines are outcome-equivalent by
construction, so the metrics must not change (the golden-trace tests pin
this); overriding *across* families — say replaying a DR-tree trace on
``flooding`` — changes delivery accuracy by design, so the expect-row check
is skipped for those segments and noted in the result.

:func:`delivery_metrics_row` is shared with the trace-native scenarios
(``hotspot``, ``adversarial-churn``, ``mobility``): they emit exactly this
row, so a recorded run and its replay produce byte-identical metrics
documents (:func:`dump_metrics`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro.traces.errors import TraceFormatError, TraceReplayError
from repro.traces.format import (OpRecord, SystemRecord, Trace,
                                 event_from_json, subscription_from_json)
from repro.traces.io import read_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.broker import Broker
    from repro.api.spec import SystemSpec
    from repro.experiments.harness import ExperimentResult

#: The accounting summary keys included in the canonical metrics row, in
#: column order.
SUMMARY_KEYS = (
    "events",
    "true_deliveries",
    "false_positives",
    "false_negatives",
    "false_positive_rate",
    "delivery_rate",
    "mean_messages_per_event",
    "mean_delivery_hops",
    "max_delivery_hops",
)

#: The DR-tree engine digest-fallback verification runs against when the
#: recorded backend itself is not metrics-reproducible.
DEFAULT_REFERENCE_ENGINE = "classic"


def delivery_metrics_row(system: "Broker", segment: int = 0) -> Dict[str, Any]:
    """The canonical per-segment metrics row of the trace subsystem.

    Pure accounting — no wall-clock, no engine-dependent values — so the row
    is identical between a recorded run, its replay, and replays on either
    dissemination engine.
    """
    summary = system.summary()
    row: Dict[str, Any] = {
        "segment": segment,
        "subscribers": len(system.subscribers()),
    }
    for key in SUMMARY_KEYS:
        row[key] = summary[key]
    return row


def metrics_document(scenario: Optional[str],
                     rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The metrics document written by ``--metrics`` (no timing fields)."""
    return {"scenario": scenario, "rows": rows}


def dump_metrics(scenario: Optional[str], rows: List[Dict[str, Any]]) -> str:
    """Canonical JSON text of :func:`metrics_document` (byte-comparable)."""
    return json.dumps(metrics_document(scenario, rows), sort_keys=True,
                      separators=(",", ":"), allow_nan=False) + "\n"


def system_spec(record: SystemRecord, backend: Optional[str] = None,
                error: type = TraceFormatError) -> "SystemSpec":
    """The :class:`~repro.api.spec.SystemSpec` of a ``system`` record.

    The one record → broker path: trace replay and the journal's bisect
    ``.build()`` the result, its export only validates.  ``backend``
    optionally overrides the recorded backend; ``error`` is the format
    error of the file the record was read from.  A record that parsed but cannot describe a system — duplicate attribute
    names, an unknown or illegal DR-tree config key, bad engine options —
    raises ``error``, never a bare ``TypeError``/``ValueError``.  An unknown
    backend name keeps its own
    :class:`~repro.api.registry.UnknownBackendError`.
    """
    from repro.api.registry import UnknownBackendError, normalize_backend
    from repro.api.spec import SystemSpec
    from repro.overlay.config import DRTreeConfig
    from repro.spatial.filters import make_space

    backend = normalize_backend(backend) if backend else record.backend
    # Engine options are construction knobs of the recorded backend: they
    # never change delivery outcomes and rarely transfer across engines
    # (shards= is sharded-only), so an overriding backend drops them.
    options = (dict(record.engine_options)
               if record.engine_options and backend == record.backend
               else None)
    try:
        space = make_space(*record.space)
    except ValueError as exc:
        raise error(f"segment {record.seg}: bad attribute space "
                    f"{list(record.space)!r}: {exc}") from exc
    try:
        config = DRTreeConfig(**record.config) if record.config else None
    except (TypeError, ValueError) as exc:
        raise error(f"segment {record.seg}: bad DR-tree config "
                    f"{record.config!r}: {exc}") from exc
    try:
        return SystemSpec(space=space, backend=backend, config=config,
                          seed=record.seed,
                          stabilize_rounds=record.stabilize_rounds,
                          engine_options=options)
    except UnknownBackendError:
        raise
    except ValueError as exc:
        raise error(f"segment {record.seg}: bad engine options "
                    f"{options!r}: {exc}") from exc


def apply_op(system: "Broker", op: OpRecord) -> None:
    """Apply one trace op record to a live broker through its facade.

    The single op-application path shared by trace replay, journal
    recovery/bisect and the synthesized-workload drivers
    (:mod:`repro.workloads.synth`), so every consumer interprets an op
    record identically.
    """
    data = op.data
    try:
        if op.op == "subscribe":
            system.subscribe(
                subscription_from_json(data["subscription"], system.space),
                stabilize=bool(data["stabilize"]))
        elif op.op == "subscribe_all":
            bulk = data["bulk"]
            system.subscribe_all(
                [subscription_from_json(sub, system.space)
                 for sub in data["subscriptions"]],
                stabilize=bool(data["stabilize"]),
                bulk=None if bulk is None else bool(bulk))
        elif op.op == "unsubscribe":
            system.unsubscribe(data["id"])
        elif op.op == "crash":
            system.fail(data["id"], stabilize=bool(data["stabilize"]))
        elif op.op == "move":
            system.move_subscription(
                data["id"],
                subscription_from_json(data["subscription"], system.space),
                stabilize=bool(data["stabilize"]))
        elif op.op == "publish":
            system.publish(event_from_json(data["event"]),
                           publisher_id=data["publisher"])
        else:  # "stabilize" — OpRecord already rejected unknown ops
            system.stabilize(max_rounds=data["max_rounds"])
    except (KeyError, TypeError, ValueError, RuntimeError) as exc:
        raise TraceReplayError(
            f"segment {op.seg}: op {op.op!r} at t={op.t} failed to apply: "
            f"{exc!r}") from exc


def execute_trace(trace: Trace,
                  verify: bool = True,
                  backend: Optional[str] = None) -> "ExperimentResult":
    """Replay ``trace`` and return the per-segment metrics as a result.

    ``backend`` optionally overrides the recorded backend of every segment
    (any name :func:`repro.api.normalize_backend` accepts).  ``verify=True`` (the
    default) compares every re-derived segment row against the trace's
    ``expect`` records and raises :class:`TraceReplayError` on the first
    divergence — except for segments where the row comparison is unsound:

    * the backend *family* was overridden (say a DR-tree trace replayed on
      ``flooding``) — different delivery accuracy is the expected outcome,
      so those segments are skipped and noted;
    * the effective backend is not metrics-reproducible
      (:func:`~repro.api.registry.backend_metrics_identical` is false, e.g.
      ``drtree:net``, whose message counts include timing-dependent
      background-stabilizer traffic).  Those segments fall back to
      *digest verification*: the segment's ops are re-run on the family's
      reference backend and the delivered-event digests
      (:func:`~repro.analysis.digests.delivered_digest`) must match byte
      for byte — the delivered *sets* are deterministic even where the
      message counts are not.  The result carries a
      ``digest-verified (N expect rows skipped)`` note.
    """
    # Imported here: repro.experiments pulls in the scenario modules, which
    # themselves import this module for delivery_metrics_row.
    from repro.analysis.digests import delivered_digest
    from repro.api.registry import (backend_family,
                                    backend_metrics_identical,
                                    normalize_backend)
    from repro.experiments.harness import ExperimentResult

    override = normalize_backend(backend) if backend is not None else None
    systems: Dict[int, "Broker"] = {}
    recorded_backends: Dict[int, str] = {}
    ops_by_seg: Dict[int, List[OpRecord]] = {}
    references: Dict[int, "Broker"] = {}
    applied = 0
    try:
        for record in trace.body:
            if isinstance(record, SystemRecord):
                systems[record.seg] = system_spec(record, override).build()
                recorded_backends[record.seg] = record.backend
            else:
                system = systems.get(record.seg)
                if system is None:  # unreachable for parsed files; guards built Traces
                    raise TraceReplayError(
                        f"op {record.op!r} references segment {record.seg} "
                        "with no system record")
                apply_op(system, record)
                ops_by_seg.setdefault(record.seg, []).append(record)
                applied += 1

        label = trace.header.scenario or "trace"
        result = ExperimentResult("TRACE", f"replay of {label}")
        crossed_families = 0
        relaxed_segments: List[int] = []
        for seg in sorted(systems):
            row = delivery_metrics_row(systems[seg], seg)
            family_changed = (
                override is not None
                and backend_family(override)
                != backend_family(recorded_backends[seg]))
            crossed_families += bool(family_changed)
            metrics_relaxed = (
                not family_changed
                and not backend_metrics_identical(
                    override or recorded_backends[seg]))
            if metrics_relaxed:
                relaxed_segments.append(seg)
            if verify and not family_changed and not metrics_relaxed:
                expect = trace.expect_for(seg)
                if expect is not None and expect.row != row:
                    diverged = sorted(
                        key for key in set(expect.row) | set(row)
                        if expect.row.get(key) != row.get(key)
                    )
                    raise TraceReplayError(
                        f"segment {seg} did not replay bit-identically; "
                        f"diverging fields: {diverged} "
                        f"(expected {expect.row!r}, got {row!r})")
            result.add_row(**row)
        result.add_note(
            f"replayed {applied} ops over {len(systems)} segment(s)"
            + (f" on backend {override}" if override else ""))
        if crossed_families:
            result.add_note(
                f"expect-row verification skipped for {crossed_families} "
                "segment(s): the backend family was overridden, so recorded "
                "delivery metrics do not apply")
        elif verify and relaxed_segments:
            # Digest fallback: re-run each relaxed segment's ops on the
            # family's reference backend and require identical delivered
            # sets.  The reference is the recorded backend itself when its
            # rows are reproducible, else the family default.
            skipped = 0
            for seg in relaxed_segments:
                recorded = recorded_backends[seg]
                reference = (recorded if backend_metrics_identical(recorded)
                             else f"drtree:{DEFAULT_REFERENCE_ENGINE}")
                system_record = next(
                    record for record in trace.body
                    if isinstance(record, SystemRecord)
                    and record.seg == seg)
                references[seg] = system_spec(
                    system_record,
                    reference if reference != recorded else None).build()
                for op in ops_by_seg.get(seg, []):
                    apply_op(references[seg], op)
                got = delivered_digest(systems[seg])
                want = delivered_digest(references[seg])
                if got != want:
                    raise TraceReplayError(
                        f"segment {seg}: delivered-event digest {got} on "
                        f"{override or recorded} diverges from {want} on "
                        f"reference backend {reference}")
                skipped += trace.expect_for(seg) is not None
            result.add_note(
                f"digest-verified ({skipped} expect row"
                f"{'' if skipped == 1 else 's'} skipped): delivered sets "
                "match the reference backend byte for byte")
        elif verify and any(trace.expect_for(seg) for seg in systems):
            result.add_note("recorded delivery metrics reproduced exactly")
        return result
    finally:
        for broker in list(systems.values()) + list(references.values()):
            close = getattr(broker, "close", None)
            if close is not None:
                close()


def replay_trace(path: Union[str, Path],
                 verify: bool = True,
                 backend: Optional[str] = None) -> "ExperimentResult":
    """Read the trace at ``path`` and :func:`execute_trace` it."""
    return execute_trace(read_trace(path), verify=verify, backend=backend)
