"""The real-network backend (``drtree:net``): codec, faults, convergence.

Covers the `repro.net` package: the length-prefixed CRC-checked frame
codec (hypothesis round-trip under arbitrary chunking, any-single-byte
tamper detection), the typed fault hierarchy, capability flags (no
snapshot), the transport (channel order while connecting and while paused,
crash drops, torn streams, reconnects, no task per channel), delivered-set
parity with the simulated engines — including
the golden-trace replay gate — the deterministic driven re-attach of an
orphaned peer, and a small crash-churn soak through the background
stabilizers.
"""

from __future__ import annotations

import asyncio
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import digests
from repro.api import SystemSpec, backend_metrics_identical
from repro.api.capabilities import SnapshotUnsupportedError, capabilities_of
from repro.api.options import NetOptions
from repro.net import (FRAME_HEADER, FrameDecoder, NetError, NetProtocolError,
                       NetTimeoutError, PeerUnreachableError, encode_frame)
from repro.net.codec import decode_frames
from repro.net.peer import PeerEndpoint
from repro.net.runtime import NetRuntime
from repro.runtime.registry import load_scenarios
from repro.overlay import messages as overlay_messages
from repro.sim.messages import Message
from repro.sim.metrics import MetricsRegistry
from repro.spatial.filters import Event
from repro.spatial.rectangle import Point
from repro.traces import replay_trace
from repro.workloads import synth
from repro.workloads.events import targeted_events
from repro.workloads.subscriptions import uniform_subscriptions
from tests.conftest import random_subscriptions

GOLDEN_TRACE = Path(__file__).parent / "golden" / "synth-mixed.jsonl"


# --------------------------------------------------------------------------- #
# Frame codec properties
# --------------------------------------------------------------------------- #


_coordinates = st.floats(min_value=0.0, max_value=1.0, width=32)

_payload_values = st.one_of(
    st.integers(min_value=-2**31, max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
    st.lists(st.integers(min_value=0, max_value=255), max_size=4),
    # The dissemination payload carries the event and its point as objects.
    st.builds(Event,
              attributes=st.dictionaries(st.sampled_from(["x", "y", "z"]),
                                         _coordinates, max_size=3),
              event_id=st.text(max_size=6)),
    st.lists(_coordinates, min_size=1, max_size=3).map(
        lambda coords: Point(*coords)),
)

_messages = st.builds(
    Message,
    sender=st.text(min_size=1, max_size=8),
    recipient=st.text(min_size=1, max_size=8),
    kind=st.sampled_from(["JOIN", "CHECK_MBR", "EVENT", "PARENT_QUERY"]),
    payload=st.dictionaries(st.text(max_size=6), _payload_values, max_size=4),
    hops=st.integers(min_value=0, max_value=9),
)


@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_codec_round_trips_under_arbitrary_chunking(data):
    """Any split of the byte stream reassembles the exact message list."""
    messages = data.draw(st.lists(_messages, min_size=1, max_size=5))
    blob = b"".join(encode_frame(message) for message in messages)
    decoder = FrameDecoder()
    decoded = []
    cursor = 0
    while cursor < len(blob):
        size = data.draw(st.integers(min_value=1, max_value=len(blob) - cursor),
                         label="chunk")
        decoded.extend(decoder.feed(blob[cursor:cursor + size]))
        cursor += size
    assert decoded == messages
    assert decoder.pending() == 0


@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_any_single_byte_flip_tears_the_stream(data):
    """Flipping any one byte anywhere raises a typed protocol fault."""
    messages = data.draw(st.lists(_messages, min_size=1, max_size=3))
    blob = bytearray(b"".join(encode_frame(message) for message in messages))
    where = data.draw(st.integers(min_value=0, max_value=len(blob) - 1),
                      label="where")
    blob[where] ^= 0x01
    with pytest.raises(NetProtocolError):
        decode_frames(bytes(blob))


def test_dissemination_envelopes_round_trip():
    """PUBLISH_UP / PUBLISH_DOWN envelopes built by the overlay decode to
    equal messages whose payload carries an equal Event and Point."""
    workload = uniform_subscriptions(24, seed=2)
    system = SystemSpec(workload.space, seed=2).build()
    system.subscribe_all(workload)
    sent = []
    system.simulation.network.add_tap(lambda message: sent.append(
        (message, encode_frame(message))))
    leaves = [peer_id for peer_id, peer in system.simulation.peers.items()
              if peer.top_level() == 0]
    for event in targeted_events(workload.space, list(workload), 4, seed=5):
        system.publish(event, publisher_id=leaves[0])
    kinds = {message.kind for message, _ in sent}
    assert {overlay_messages.PUBLISH_UP,
            overlay_messages.PUBLISH_DOWN} <= kinds
    decoded = decode_frames(b"".join(blob for _, blob in sent))
    assert decoded == [message for message, _ in sent]
    for (message, _), copy in zip(sent, decoded):
        assert isinstance(copy.payload["event_obj"], Event)
        assert isinstance(copy.payload["point"], Point)
        assert copy.payload["event_obj"] == message.payload["event_obj"]
        assert copy.payload["point"] == message.payload["point"]


def test_decoder_rejects_trailing_bytes_and_bad_magic():
    frame = encode_frame(Message("a", "b", "EVENT"))
    with pytest.raises(NetProtocolError, match="trailing"):
        decode_frames(frame + b"\x01")
    with pytest.raises(NetProtocolError, match="magic"):
        decode_frames(b"\x00" * FRAME_HEADER.size)


def test_fault_hierarchy_roots_at_net_error():
    for leaf in (NetTimeoutError, PeerUnreachableError, NetProtocolError):
        assert issubclass(leaf, NetError)
    assert issubclass(NetError, RuntimeError)


# --------------------------------------------------------------------------- #
# Capabilities, options, typed transport faults
# --------------------------------------------------------------------------- #


def test_net_capabilities_exclude_snapshot(space):
    broker = SystemSpec(space, backend="drtree:net", seed=3).build()
    try:
        assert "snapshot" not in capabilities_of(broker)
        with pytest.raises(SnapshotUnsupportedError):
            broker.snapshot()
    finally:
        broker.close()
    assert backend_metrics_identical("drtree:net") is False
    assert backend_metrics_identical("drtree:classic") is True
    assert backend_metrics_identical("flooding") is True


def test_net_options_validated_at_spec_time(space):
    with pytest.raises(ValueError, match="time_scale"):
        SystemSpec(space, backend="drtree:net",
                   engine_options={"time_scale": 0})
    with pytest.raises(ValueError, match="stabilizer"):
        SystemSpec(space, backend="drtree:net",
                   engine_options={"stabilizer": "sometimes"})
    with pytest.raises(ValueError, match="net"):
        SystemSpec(space, backend="drtree:net",
                   engine_options={"bogus": 1})


def test_unreachable_peer_raises_typed_fault(space):
    broker = SystemSpec(
        space, backend="drtree:net", seed=0,
        engine_options={"send_retries": 0, "retry_backoff": 0.001}).build()
    try:
        runtime = broker.simulation.runtime
        with pytest.raises(PeerUnreachableError, match="ghost"):
            runtime.call(runtime.connect("ghost"), op=False)
    finally:
        broker.close()


def test_loop_that_never_starts_raises_typed_timeout(monkeypatch):
    """The constructor's wait for the loop thread is bounded by
    ``idle_timeout``; the loop is closed before the typed error."""
    loops = []
    new_event_loop = asyncio.new_event_loop
    monkeypatch.setattr(asyncio, "new_event_loop",
                        lambda: loops.append(new_event_loop()) or loops[-1])
    monkeypatch.setattr(NetRuntime, "_run_loop", lambda self: None)
    with pytest.raises(NetTimeoutError, match="did not start"):
        NetRuntime(NetOptions(idle_timeout=0.2), MetricsRegistry(),
                   random.Random(0))
    assert len(loops) == 1 and loops[0].is_closed()


def test_digest_helpers_are_shared_single_source():
    """Satellite: one digest implementation serves synth and analysis."""
    assert synth.delivered_digest is digests.delivered_digest
    assert synth.stream_signature is digests.stream_signature


# --------------------------------------------------------------------------- #
# The transport: channel order, backpressure, crashes, reconnects, tasks
# --------------------------------------------------------------------------- #


class _Recorder:
    """A stand-in peer that records the ``seq`` of every frame it handles."""

    def __init__(self, process_id: str) -> None:
        self.process_id = process_id
        self.received = []

    def handle_message(self, message: Message) -> None:
        self.received.append(message.payload["seq"])


@pytest.fixture
def transport():
    """A bare runtime and a helper that starts a recording endpoint."""
    runtime = NetRuntime(NetOptions(stabilizer="off", idle_timeout=10.0),
                         MetricsRegistry(), random.Random(0))
    endpoints = {}

    def add(peer_id: str) -> _Recorder:
        peer = _Recorder(peer_id)
        runtime.peers[peer_id] = peer
        endpoints[peer_id] = PeerEndpoint(runtime, peer)
        runtime.call(endpoints[peer_id].start(), op=False)
        return peer

    yield runtime, add
    runtime.close(endpoints)


def _frame(recipient: str, seq: int) -> Message:
    return Message("a", recipient, "PROBE", {"seq": seq})


def test_frames_enqueued_while_connecting_arrive_in_order(transport):
    runtime, add = transport
    peer = add("b")

    async def burst():
        for seq in range(20):
            runtime.enqueue(_frame("b", seq))
        channel = runtime._channels["b"]
        pending = (channel.outbound, len(channel.queue))
        await runtime.wait_idle()
        return pending

    assert runtime.call(burst(), op=False) == (None, 20)
    assert peer.received == list(range(20))


def test_paused_channel_queues_then_flushes_in_order_on_resume(transport):
    runtime, add = transport
    peer = add("b")

    async def scenario():
        runtime.enqueue(_frame("b", 0))
        await runtime.wait_idle()
        channel = runtime._channels["b"]
        channel.outbound.pause_writing()
        for seq in range(1, 9):
            runtime.enqueue(_frame("b", seq))
        queued = [message.payload["seq"] for message in channel.queue]
        await asyncio.sleep(0.02)
        before = list(peer.received)
        channel.outbound.resume_writing()
        left = len(channel.queue)
        await runtime.wait_idle()
        return queued, before, left

    queued, before, left = runtime.call(scenario(), op=False)
    assert queued == list(range(1, 9))
    assert before == [0]
    assert left == 0
    assert peer.received == list(range(9))
    assert runtime.ledger.total == 0


def test_crash_while_connect_is_pending_drops_frames_as_crashed(transport):
    """``b`` has no address yet, so its connect sits in retry backoff when
    it crashes; ``c`` is retired (as a crash does) in the same state."""
    runtime, add = transport
    for peer_id in ("b", "c"):
        runtime.peers[peer_id] = _Recorder(peer_id)

    async def scenario():
        for seq in range(3):
            runtime.enqueue(_frame("b", seq))
            runtime.enqueue(_frame("c", seq))
        held = runtime.ledger.total
        await asyncio.sleep(0.01)
        runtime.mark_crashed("b")
        runtime.mark_crashed("c")
        runtime.retire_channel("c")
        await runtime.wait_idle()
        return held

    assert runtime.call(scenario(), op=False) == 6
    counter = runtime.metrics.counter
    assert counter("net.frames_dropped.crashed") == 6
    assert counter("net.frames_dropped.unreachable") == 0
    assert runtime.ledger.total == 0
    assert all(not peer.received for peer in runtime.peers.values())


def test_torn_stream_closes_only_its_connection(transport):
    runtime, add = transport
    peer = add("b")

    async def scenario():
        raw, _ = await runtime.connect("b")
        raw.write(b"\x00" * FRAME_HEADER.size + encode_frame(_frame("b", 0)))
        await asyncio.sleep(0.05)
        torn = raw.is_closing()
        runtime.enqueue(_frame("b", 1))
        await runtime.wait_idle()
        return torn

    assert runtime.call(scenario(), op=False) is True
    assert runtime.metrics.counter("net.protocol_errors") == 1
    assert peer.received == [1]


def test_frame_sent_while_its_connection_closes_reconnects(transport):
    """A close seen before its ``connection_lost`` callback has run."""
    runtime, add = transport
    peer = add("b")

    async def scenario():
        runtime.enqueue(_frame("b", 0))
        await runtime.wait_idle()
        closing = runtime._channels["b"].outbound
        closing.transport.close()
        runtime.enqueue(_frame("b", 1))
        await runtime.wait_idle()
        return closing is not runtime._channels["b"].outbound

    assert runtime.call(scenario(), op=False) is True
    assert peer.received == [0, 1]


def test_server_side_close_between_publishes_reconnects():
    workload = uniform_subscriptions(16, seed=2)
    subscriptions = list(workload)
    events = targeted_events(workload.space, subscriptions, 2, seed=9)
    spec = SystemSpec(space=workload.space, seed=2)
    net = spec.with_backend("drtree:net").with_engine_options(
        {"stabilizer": "off"}).build()
    classic = spec.with_backend("drtree:classic").build()
    sim = net.simulation
    runtime = sim.runtime

    async def close_server_sides():
        closed = 0
        for endpoint in sim.endpoints.values():
            for server_side in list(endpoint.inbound):
                server_side.close()
                closed += 1
        await asyncio.sleep(0.05)
        return closed, [channel.outbound
                        for channel in runtime._channels.values()]

    try:
        for broker in (net, classic):
            broker.subscribe_all(subscriptions)
            broker.publish(events[0])
        closed, outbounds = runtime.call(close_server_sides(), op=False)
        assert closed > 0
        assert outbounds and all(outbound is None for outbound in outbounds)
        second = net.publish(events[1])
        assert second.received
        assert second.received == classic.publish(events[1]).received
        assert any(channel.outbound is not None
                   for channel in runtime._channels.values())
        assert runtime.metrics.counter("net.frames_dropped.unreachable") == 0
    finally:
        net.close()
        classic.close()


def test_loop_tasks_do_not_grow_with_open_channels():
    """Channels and connections are protocols, not tasks: with every
    connect done, the loop runs no task but the caller's own."""
    workload = uniform_subscriptions(200, seed=3)
    subscriptions = list(workload)
    broker = SystemSpec(workload.space, backend="drtree:net", seed=3,
                        engine_options={"stabilizer": "off"}).build()
    runtime = broker.simulation.runtime

    async def census():
        return len(runtime._channels), len(asyncio.all_tasks(runtime.loop))

    try:
        broker.subscribe_all(subscriptions)
        broker.publish_many(targeted_events(workload.space, subscriptions,
                                            20, seed=4))
        channels, tasks = runtime.call(census(), op=False)
    finally:
        broker.close()
    assert channels >= 100
    assert tasks == 1


# --------------------------------------------------------------------------- #
# Delivered-set parity with the simulated engines
# --------------------------------------------------------------------------- #


def test_net_delivers_byte_identical_to_classic():
    workload = uniform_subscriptions(16, seed=2)
    subscriptions = list(workload)
    events = targeted_events(workload.space, subscriptions, 6, seed=9)
    spec = SystemSpec(space=workload.space, seed=2)
    net = spec.with_backend("drtree:net").build()
    classic = spec.with_backend("drtree:classic").build()
    try:
        net.subscribe_all(subscriptions)
        classic.subscribe_all(subscriptions)
        net.publish_many(events)
        classic.publish_many(events)
        assert digests.delivered_digest(net) == \
            digests.delivered_digest(classic)
    finally:
        net.close()
        classic.close()


def test_net_messages_never_reach_the_simulated_round_queues(monkeypatch):
    """``NetNetwork`` has no condition pipeline of its own, so every message
    — a single send or a fan-out — reaches its one ``_enqueue_round``
    override, which hands it to the runtime: none reaches the base class's
    round queues, and none is delivered by the simulated network (its
    per-delay entries, were one scheduled on the clock, would run
    ``_deliver_many``)."""
    from repro.sim.network import Network

    scheduled, enqueued = [], []
    for name in ("_enqueue_round", "_deliver_many"):
        monkeypatch.setattr(Network, name,
                            lambda self, *args, name=name:
                            scheduled.append((name, args)))
    enqueue = NetRuntime.enqueue

    def recording_enqueue(self, message):
        enqueued.append(message.kind)
        return enqueue(self, message)

    monkeypatch.setattr(NetRuntime, "enqueue", recording_enqueue)
    workload = uniform_subscriptions(16, seed=2)
    subscriptions = list(workload)
    broker = SystemSpec(workload.space, backend="drtree:net", seed=2,
                        engine_options={"stabilizer": "off"}).build()
    try:
        broker.subscribe_all(subscriptions)
        broker.publish_many(targeted_events(workload.space, subscriptions, 6,
                                            seed=9))
    finally:
        broker.close()
    assert scheduled == []
    assert len(enqueued) == broker.simulation.metrics.counter(
        "network.messages_sent")
    assert {overlay_messages.PUBLISH_DOWN, overlay_messages.JOIN} <= set(
        enqueued)


def test_golden_replay_on_net_is_digest_verified():
    """The recorded golden trace replays on drtree:net byte for byte."""
    result = replay_trace(GOLDEN_TRACE, backend="drtree:net")
    assert any(note.startswith("digest-verified")
               for note in result.notes), result.notes


# --------------------------------------------------------------------------- #
# Stabilization: driven re-attach and background convergence
# --------------------------------------------------------------------------- #


def _drive_cycle(sim) -> None:
    """One deterministic stabilizer cycle: every live peer, then settle."""
    async def one_cycle():
        for peer in list(sim.live_peers()):
            peer.run_stabilization_round()
        await sim.runtime.wait_idle()
    sim.runtime.call(one_cycle())


def test_orphan_reattaches_within_k_driven_cycles(space):
    """A peer whose parent crashed rejoins within K stabilizer cycles.

    Background stabilizers are off, so every cycle is driven explicitly —
    the count is deterministic, not wall-clock dependent.
    """
    broker = SystemSpec(space, backend="drtree:net", seed=11,
                        engine_options={"stabilizer": "off"}).build()
    try:
        broker.subscribe_all(random_subscriptions(space, 14, seed=11))
        sim = broker.simulation
        victim = next(peer for peer in sim.live_peers()
                      if peer.top_level() >= 1 and peer is not sim.root())
        orphans = [peer.process_id for peer in sim.live_peers()
                   if peer is not victim
                   and peer.instances[0].parent == victim.process_id]
        assert orphans, "picked an internal peer without children"
        broker.fail(victim.process_id, stabilize=False)

        for cycles in range(1, 9):
            _drive_cycle(sim)
            reattached = all(
                sim.peer(orphan).instances[0].parent
                not in (None, victim.process_id)
                for orphan in orphans if orphan in sim.peers)
            if reattached and sim.verify().is_legal:
                break
        else:
            pytest.fail("orphans did not re-attach within 8 driven cycles")
        assert cycles <= 8
        probe_events = targeted_events(
            space, [broker.subscription_of(orphans[0])], 2, seed=5)
        for event in probe_events:
            outcome = broker.publish(event)
            assert orphans[0] in outcome.received
    finally:
        broker.close()


def test_net_soak_converges_and_delivers():
    result = load_scenarios().get("net-soak").run(
        peers=36, events=4, waves=1, crash_fraction=0.1, timeout=30.0, seed=1)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row["crashed"] >= 1
    assert row["net_legal"] is True
    assert row["net_cycles_max"] >= 1
    assert row["net_missed"] == 0
    assert row["sim_missed"] == 0
    assert any("crash wave" in note for note in result.notes)
    assert any("legal after every wave" in note for note in result.notes)
