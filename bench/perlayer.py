"""Per-layer metrics of a traced run, from spans, counters and probes.

Names are ``<module>.<what>``.  A metric reads ``None`` when a span it needs
did not resolve (see :mod:`bench.layers`) and 0 when the workload does not
exercise its layer.  ``UNITS`` is the list ``BENCHMARK.json`` repeats.

Op classes: a span belongs to the measured op in flight when it started —
``publish`` ops (the read path) or ``membership`` ops (everything else a
workload times: subscribe, unsubscribe, fail, move, subscribe_all) — or to
``outside`` (set-up, warm-up, final checks).  ``per_event`` metrics divide
the publish-class spans by the measured publishes, ``per_op`` metrics divide
the membership-class spans by the measured membership ops.
"""

from __future__ import annotations

import resource
import statistics
from typing import Any, Dict, List, Optional

from repro.overlay.config import DRTreeConfig

from bench import probes
from bench.tracing import Tracer
from bench.workloads import Pass

FACADE_OPS = ("publish", "subscribe", "subscribe_all", "unsubscribe", "fail",
              "move_subscription", "stabilize")
MESSAGE_TYPES = ("PUBLISH_DOWN", "PUBLISH_UP", "PARENT_QUERY", "PARENT_ACK")
MEASURED = ("publish", "membership")
EVERYWHERE = MEASURED + ("outside",)

#: Every per-layer metric and its unit, in report order.
UNITS: Dict[str, str] = {
    "pubsub.matching.us_per_event": "us",
    "pubsub.accounting.us_per_event": "us",
    "pubsub.api.self_us_per_op": "us",
    "pubsub.accounting.false_positive_rate": "ratio",
    "overlay.dissemination.us_per_event": "us",
    "sim.engine.self_us_per_event": "us",
    "sim.network.msgs_per_event": "count",
    **{f"sim.network.msgs_by_type.{kind}": "count" for kind in MESSAGE_TYPES},
    "overlay.stabilization.us_per_op": "us",
    "overlay.stabilization.round_us": "us",
    "overlay.stabilization.rounds_per_op": "count",
    "overlay.verifier.us_per_op": "us",
    "overlay.join.us_per_op": "us",
    "overlay.leave.us_per_op": "us",
    "overlay.crash.us_per_op": "us",
    "spatial.union_of_ns": "ns",
    "spatial.union_of_calls_per_op": "count",
    "spatial.contains_point_ns": "ns",
    "spatial.child_ids_containing_point_us": "us",
    "overlay.layout.compute_layout_s": "s",
    "overlay.bootstrap.wire_layout_s": "s",
    "overlay.stabilization.first_fixpoint_s": "s",
    "api.build_ms": "ms",
    "workloads.generate_s": "s",
    "sim.sharded.publish_us_per_event": "us",
    "sim.sharded.frames_per_event": "count",
    "sim.sharded.bytes_per_frame": "B",
    "sim.sharded.send_us_per_frame": "us",
    "sim.sharded.recv_wait_us_per_frame": "us",
    "sim.sharded.cross_shard_msgs_per_event": "count",
    "sim.sharded.worker_peak_rss_mb": "MB",
    "sim.sharded.frame_roundtrip_us": "us",
    "net.codec.encode_us_per_frame": "us",
    "net.codec.decode_us_per_frame": "us",
    "net.codec.bytes_per_frame": "B",
    "net.runtime.frames_per_event": "count",
    "net.runtime.dispatch_us_per_frame": "us",
    "net.runtime.settle_wait_us_per_event": "us",
    "journal.append_us_per_op": "us",
    "journal.snapshot_ms": "ms",
    "journal.snapshots": "count",
    "journal.fsyncs": "count",
    "journal.bytes_per_op": "B",
    "traces.apply_op_self_us_per_op": "us",
    "workloads.synth.iter_ops_us_per_op": "us",
    "trace_overhead_pct": "%",
}

Number = Optional[float]


def _add(*values: Number) -> Number:
    return None if None in values else sum(values)


def _minus(value: Number, part: Number) -> Number:
    return None if None in (value, part) else value - part


def _where_used(used: Number, value: Number) -> Number:
    """``value`` where the layer saw traffic, else ``used`` itself (0, or
    ``None`` when its span is unresolved)."""
    return value if used else used


def _ratio(numerator: Number, denominator: Number,
           scale: float = 1.0) -> Number:
    if numerator is None or denominator is None:
        return None
    return numerator * scale / denominator if denominator else 0.0


class _Spans:
    """Totals, self times and counts by span name, ``None`` if unresolved."""

    def __init__(self, tracer: Tracer, kinds: List[str]) -> None:
        self._stats = tracer.stats(kinds)
        self._unresolved = tracer.unresolved

    def _sum(self, field: str, name: str, classes: Any) -> Number:
        if name in self._unresolved:
            return None
        return float(sum(getattr(self._stats[(name, op_class)], field)
                         for op_class in classes
                         if (name, op_class) in self._stats))

    def total(self, name: str, *classes: str) -> Number:
        return self._sum("total", name, classes)

    def self_time(self, name: str, *classes: str) -> Number:
        return self._sum("self_time", name, classes)

    def count(self, name: str, *classes: str) -> Number:
        return self._sum("count", name, classes)

    def mean(self, name: str, scale: float = 1.0) -> Number:
        return _ratio(self.total(name, *EVERYWHERE),
                      self.count(name, *EVERYWHERE), scale)


def compute(tracer: Tracer, traced: Pass, plain: Pass,
            probe_calls: int) -> Dict[str, Number]:
    """Every metric of :data:`UNITS` for one traced pass."""
    rec = traced.rec
    spans = _Spans(tracer, rec.kinds)
    events = len(rec.samples["publish"])
    ops = len(rec.kinds)
    membership = ops - events
    simulated = traced.facts["simulated"]
    deltas = traced.facts["counter_deltas"]
    us = 1e6

    def per_call(name: str, op_class: str) -> Number:
        return _ratio(spans.total(name, op_class),
                      spans.count(name, op_class), us)

    metrics: Dict[str, Number] = {
        "pubsub.matching.us_per_event":
            _ratio(spans.total("pubsub.matching", "publish"), events, us),
        "pubsub.accounting.us_per_event": _ratio(_add(
            spans.self_time("pubsub.accounting.start_event", "publish"),
            spans.total("pubsub.accounting.record_delivery", "publish")),
            events, us),
        "pubsub.api.self_us_per_op": _ratio(_add(*(
            spans.self_time(f"pubsub.api.{op}", *MEASURED)
            for op in FACADE_OPS)), ops, us),
        "pubsub.accounting.false_positive_rate":
            simulated["false_positive_rate"],
        "overlay.dissemination.us_per_event": _ratio(_add(*(
            spans.self_time(f"overlay.dissemination.{step}", "publish")
            for step in ("publish", "handle_publish_down",
                         "handle_publish_up"))), events, us),
        "sim.engine.self_us_per_event": _ratio(_add(
            spans.self_time("sim.publish", "publish"),
            spans.self_time("sim.settle", "publish")), events, us),
        "sim.network.msgs_per_event": simulated["msgs_per_event"],
    }
    for kind in MESSAGE_TYPES:
        metrics[f"sim.network.msgs_by_type.{kind}"] = _ratio(
            deltas.get(f"network.messages.{kind}", 0.0), ops)

    verifier = spans.total("overlay.verifier.verify", "membership")
    stabilize = spans.total("sim.stabilize", "membership")
    rounds = spans.count("sim.run_round", "membership")
    metrics.update({
        "overlay.stabilization.us_per_op": _ratio(
            _minus(stabilize, verifier), membership, us),
        "overlay.stabilization.round_us": per_call("sim.run_round",
                                                   "membership"),
        "overlay.stabilization.rounds_per_op": _ratio(rounds, membership),
        "overlay.verifier.us_per_op": _ratio(verifier, membership, us),
        "overlay.join.us_per_op": per_call("sim.add_peer", "membership"),
        "overlay.leave.us_per_op": per_call("sim.leave", "membership"),
        "overlay.crash.us_per_op": per_call("sim.crash", "membership"),
    })

    metrics.update(probes.spatial(traced.subscriptions,
                                  DRTreeConfig().max_children, probe_calls))
    metrics["spatial.union_of_calls_per_op"] = (
        None if "spatial.union_of" in tracer.unresolved
        else _ratio(float(tracer.counts["spatial.union_of"]), ops))

    first_fixpoints = tracer.children_of("sim.stabilize",
                                         "pubsub.api.subscribe_all")
    metrics.update({
        "overlay.layout.compute_layout_s":
            spans.mean("overlay.layout.compute_layout"),
        "overlay.bootstrap.wire_layout_s":
            spans.mean("overlay.bootstrap.wire_layout"),
        "overlay.stabilization.first_fixpoint_s": (
            None if {"sim.stabilize", "pubsub.api.subscribe_all"}
            & tracer.unresolved
            else statistics.mean(first_fixpoints) if first_fixpoints
            else 0.0),
        "api.build_ms": spans.mean("api.build", 1e3),
        "workloads.generate_s": spans.mean("bench.generate"),
    })

    sends = spans.count("sim.sharded.send", "publish")
    recvs = spans.count("sim.sharded.recv", "publish")
    shard_report = traced.extra.get("shard_report", ())
    metrics.update({
        "sim.sharded.publish_us_per_event": _where_used(
            sends, _ratio(spans.total("sim.publish", "publish"), events, us)),
        "sim.sharded.frames_per_event": _ratio(_add(sends, recvs), events),
        "sim.sharded.send_us_per_frame": per_call("sim.sharded.send",
                                                  "publish"),
        "sim.sharded.recv_wait_us_per_frame": per_call("sim.sharded.recv",
                                                       "publish"),
        "sim.sharded.cross_shard_msgs_per_event": _ratio(
            float(sum(row["remote_out"] for row in shard_report)),
            simulated["events"]),
        "sim.sharded.worker_peak_rss_mb": (resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            if shard_report else 0.0),
    })
    metrics.update(probes.shm_frames(tracer.captured["sim.sharded.send"]))

    dispatch = spans.total("net.runtime.dispatch", "publish")
    publish_on_sim = spans.total("sim.publish", "publish")
    metrics.update(probes.net_codec(tracer.captured["net.runtime.enqueue"]))
    metrics.update({
        "net.runtime.frames_per_event": _ratio(
            spans.count("net.runtime.enqueue", "publish"), events),
        "net.runtime.dispatch_us_per_frame": per_call("net.runtime.dispatch",
                                                      "publish"),
        # What is left of a publish once the loop thread's handler time is
        # taken out: socket round-trips and asyncio scheduling.
        "net.runtime.settle_wait_us_per_event": _where_used(
            dispatch, _ratio(_minus(publish_on_sim, dispatch), events, us)),
    })

    snapshots = spans.count("pubsub.api.snapshot", "publish")
    metrics.update({
        "journal.append_us_per_op": _ratio(
            spans.total("journal.append", "publish"), events, us),
        "journal.snapshot_ms": _ratio(_add(
            spans.total("pubsub.api.snapshot", "publish"),
            spans.total("journal.compress", "publish")), snapshots, 1e3),
        "journal.snapshots": snapshots,
        "journal.fsyncs": spans.count("journal.sync", "publish"),
        "journal.bytes_per_op": _ratio(
            float(traced.extra.get("journal_bytes", 0)), events),
        "traces.apply_op_self_us_per_op": _ratio(
            spans.self_time("traces.apply_op", "publish"), events, us),
        "workloads.synth.iter_ops_us_per_op": _ratio(
            spans.total("bench.iter_ops", "outside"),
            spans.count("bench.iter_ops", "outside"), us),
        "trace_overhead_pct":
            (plain.ops_per_s / traced.ops_per_s - 1.0) * 100.0,
    })
    if set(metrics) != set(UNITS):
        raise RuntimeError("per-layer metrics and UNITS disagree on "
                           f"{sorted(set(metrics) ^ set(UNITS))}")
    return {name: metrics[name] for name in UNITS}
