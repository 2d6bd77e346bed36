"""Direct probes: costs too small or too frequent to measure with spans.

Each probe calls one public function of a layer in a tight loop on inputs
taken from the run (rectangles of the built population, payloads captured on
the wire) and reports the median of five batches.  A probe whose function no
longer resolves reads ``None``; one with nothing to replay (the workload did
not use that layer) reads 0.
"""

from __future__ import annotations

import pickle
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from bench import layers

BATCHES = 5

Values = Dict[str, Optional[float]]


def _median_batch_s(batch: Callable[[], Any]) -> float:
    times = []
    for _ in range(BATCHES):
        begin = time.perf_counter()
        batch()
        times.append(time.perf_counter() - begin)
    return statistics.median(times)


def spatial(subscriptions: Sequence[Any], fanout: int, calls: int) -> Values:
    """ns per ``Rect.union_of`` / ``contains_point`` on groups of ``fanout``
    population rectangles, µs per ``child_ids_containing_point`` pass."""
    names = ("spatial.union_of_ns", "spatial.contains_point_ns",
             "spatial.child_ids_containing_point_us")
    rect_type = layers.probed("rect")
    containing = layers.probed("child_ids_containing_point")
    if rect_type is None or containing is None:
        return dict.fromkeys(names)
    rects = [subscription.rect for subscription in subscriptions]
    groups = [rects[start:start + fanout]
              for start in range(0, len(rects) - fanout + 1, fanout)]
    points = [group[0].center for group in groups]
    rounds = max(1, calls // len(groups))
    per_call = 1.0 / (rounds * len(groups))

    class Child:
        def __init__(self, mbr: Any) -> None:
            self.mbr = mbr

    tables = [{str(index): Child(rect) for index, rect in enumerate(group)}
              for group in groups]
    union_of = rect_type.union_of

    def unions() -> None:
        for _ in range(rounds):
            for group in groups:
                union_of(group)

    def contains() -> None:
        for _ in range(rounds):
            for group, point in zip(groups, points):
                group[-1].contains_point(point)

    def passes() -> None:
        for _ in range(rounds):
            for table, point in zip(tables, points):
                containing(table, point)

    return dict(zip(names, (_median_batch_s(unions) * per_call * 1e9,
                            _median_batch_s(contains) * per_call * 1e9,
                            _median_batch_s(passes) * per_call * 1e6)))


def net_codec(messages: List[Any]) -> Values:
    """µs per encode / decode and bytes per frame on captured messages."""
    names = ("net.codec.encode_us_per_frame", "net.codec.decode_us_per_frame",
             "net.codec.bytes_per_frame")
    encode = layers.probed("encode_frame")
    decoder_type = layers.probed("frame_decoder")
    if encode is None or decoder_type is None:
        return dict.fromkeys(names)
    if not messages:
        return dict.fromkeys(names, 0.0)
    frames = [encode(message) for message in messages]

    def decode() -> None:
        decoder = decoder_type()
        for frame in frames:
            decoder.feed(frame)

    per_frame_us = 1e6 / len(frames)
    return dict(zip(names, (
        _median_batch_s(lambda: [encode(message) for message in messages])
        * per_frame_us,
        _median_batch_s(decode) * per_frame_us,
        sum(len(frame) for frame in frames) / len(frames))))


def shm_frames(payloads: List[Any]) -> Values:
    """Bytes per frame of the captured shard commands, and the µs one of
    them takes through an in-process ring pair (send, then recv)."""
    names = ("sim.sharded.bytes_per_frame", "sim.sharded.frame_roundtrip_us")
    pair_type = layers.probed("shm_pair")
    attach = layers.probed("attach_worker_channel")
    if pair_type is None or attach is None:
        return dict.fromkeys(names)
    if not payloads:
        return dict.fromkeys(names, 0.0)
    header = 12  # the <III magic/length/crc frame header
    sizes = [len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
             + header for payload in payloads]
    # Nobody drains the ring while this thread sends, so a frame must fit.
    fitting = [payload for payload, size in zip(payloads, sizes)
               if size < (1 << 20)]
    pair = pair_type(shard_id=0)
    worker = None
    try:
        worker = attach(pair.names, shared_tracker=True)

        def roundtrips() -> None:
            for payload in fitting:
                pair.channel.send(payload)
                worker.recv()

        roundtrip_us = _median_batch_s(roundtrips) / len(fitting) * 1e6
    finally:
        if worker is not None:
            worker.close()
        pair.unlink()
    return dict(zip(names, (sum(sizes) / len(sizes), roundtrip_us)))
