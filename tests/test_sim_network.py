"""Tests for the simulated network and process base class."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationEngine
from repro.sim.messages import Message
from repro.sim.network import FixedLatency, Network, UniformLatency
from repro.sim.process import Process
from repro.sim.rng import RandomStreams
from tests.conftest import PerMessageNetwork


class EchoProcess(Process):
    """Records everything it receives and can reply."""

    handlers = {"PING": "handle_ping", "PONG": "handle_pong"}

    def __init__(self, process_id, network):
        super().__init__(process_id, network)
        self.received = []

    def handle_ping(self, message):
        self.received.append(("PING", message.sender))
        self.send(message.sender, "PONG")

    def handle_pong(self, message):
        self.received.append(("PONG", message.sender))


@pytest.fixture
def net():
    engine = SimulationEngine()
    network = Network(engine, latency=FixedLatency(1.0))
    return engine, network


def test_message_round_trip(net):
    engine, network = net
    a = EchoProcess("a", network)
    b = EchoProcess("b", network)
    a.send("b", "PING")
    engine.run_until_idle()
    assert ("PING", "a") in b.received
    assert ("PONG", "b") in a.received


def test_latency_delays_delivery(net):
    engine, network = net
    a = EchoProcess("a", network)
    b = EchoProcess("b", network)
    a.send("b", "PING")
    engine.run(until=0.5)
    assert b.received == []
    engine.run_until_idle()
    assert b.received


def test_unknown_recipient_dropped(net):
    engine, network = net
    a = EchoProcess("a", network)
    a.send("ghost", "PING")
    engine.run_until_idle()
    assert network.metrics.counter("network.messages_dropped") == 1


def test_crashed_recipient_drops_messages(net):
    engine, network = net
    a = EchoProcess("a", network)
    b = EchoProcess("b", network)
    b.crash()
    a.send("b", "PING")
    engine.run_until_idle()
    assert b.received == []
    assert not network.is_live("b")


def test_crashed_sender_cannot_send(net):
    engine, network = net
    a = EchoProcess("a", network)
    b = EchoProcess("b", network)
    a.crash()
    a.send("b", "PING")
    engine.run_until_idle()
    assert b.received == []


def test_duplicate_registration_rejected(net):
    engine, network = net
    EchoProcess("a", network)
    with pytest.raises(ValueError):
        EchoProcess("a", network)


def test_partition_blocks_cross_group_messages(net):
    engine, network = net
    a = EchoProcess("a", network)
    b = EchoProcess("b", network)
    c = EchoProcess("c", network)
    network.partition([{"a", "b"}, {"c"}])
    a.send("b", "PING")
    a.send("c", "PING")
    engine.run_until_idle()
    assert ("PING", "a") in b.received
    assert c.received == []
    network.heal_partition()
    a.send("c", "PING")
    engine.run_until_idle()
    assert ("PING", "a") in c.received


def test_message_loss(net):
    engine, _ = net
    network = Network(engine, latency=FixedLatency(1.0), loss_rate=0.5,
                      streams=RandomStreams(42))
    a = EchoProcess("a", network)
    EchoProcess("b", network)
    for _ in range(200):
        a.send("b", "PING")
    engine.run_until_idle()
    delivered = network.metrics.counter("network.messages_delivered")
    lost = network.metrics.counter("network.messages_lost")
    # PONG replies also count; just check a substantial share was lost.
    assert lost > 40
    assert delivered > 40


def test_a_lossless_send_draws_nothing_from_the_loss_stream(net):
    """At loss 0 no draw can decide anything, so ``send`` makes none: the
    ``network.loss`` stream is as it was built, as after ``send_many``."""
    engine, network = net
    a = EchoProcess("a", network)
    EchoProcess("b", network)
    loss = network._streams.stream("network.loss")
    state = loss.getstate()
    a.send("b", "PING")
    network.send_many("a", ["b", "b"], "PING", {})
    engine.run_until_idle()
    assert network.metrics.counter("network.messages_delivered") == 6
    assert loss.getstate() == state


def test_invalid_loss_rate():
    engine = SimulationEngine()
    with pytest.raises(ValueError):
        Network(engine, loss_rate=1.5)


def test_network_tap_sees_all_sends(net):
    engine, network = net
    seen = []
    network.add_tap(lambda m: seen.append(m.kind))
    a = EchoProcess("a", network)
    EchoProcess("b", network)
    a.send("b", "PING")
    engine.run_until_idle()
    assert seen == ["PING", "PONG"]


def test_message_reply_addressing():
    message = Message(sender="a", recipient="b", kind="PING", payload={"x": 1})
    reply = message.reply("PONG", {"y": 2})
    assert reply.sender == "b"
    assert reply.recipient == "a"
    assert reply.hops == message.hops + 1


def test_uniform_latency_bounds():
    latency = UniformLatency(1.0, 3.0, RandomStreams(1))
    samples = [latency.sample() for _ in range(100)]
    assert all(1.0 <= s <= 3.0 for s in samples)
    with pytest.raises(ValueError):
        UniformLatency(3.0, 1.0, RandomStreams(1))


# --------------------------------------------------------------------------- #
# Process timers
# --------------------------------------------------------------------------- #


def test_one_shot_timer(net):
    engine, network = net
    a = EchoProcess("a", network)
    fired = []
    a.set_timer(5.0, lambda: fired.append(engine.now))
    engine.run_until_idle()
    assert fired == [5.0]


def test_timer_suppressed_after_crash(net):
    engine, network = net
    a = EchoProcess("a", network)
    fired = []
    a.set_timer(5.0, lambda: fired.append(engine.now))
    a.crash()
    engine.run_until_idle()
    assert fired == []


def test_unhandled_message_counted(net):
    engine, network = net
    a = EchoProcess("a", network)
    EchoProcess("b", network)
    a.send("b", "UNKNOWN_KIND")
    engine.run_until_idle()
    assert network.metrics.counter("process.unhandled_messages") == 1


# --------------------------------------------------------------------- #
# send_many: the per-round queues, and per-entry scheduling
# --------------------------------------------------------------------- #


def _send_batch(network, sender, recipients, kind="PING"):
    network.send_many(sender, recipients, kind, {"n": 1})


def test_send_many_unbatched_falls_back_to_send():
    """A sampling latency model cannot share a round: each sampled delay
    gets its own engine entry, as one ``send`` per recipient would."""
    engine = SimulationEngine()
    network = Network(engine, latency=UniformLatency(1.0, 2.0,
                                                     RandomStreams(3)))
    a = EchoProcess("a", network)
    b = EchoProcess("b", network)
    c = EchoProcess("c", network)
    _send_batch(network, "a", ["b", "c"])
    assert engine.pending() == 2  # one engine entry per sampled delay
    assert network._rounds == {}  # nothing joined a per-round queue
    engine.run_until_idle()
    assert ("PING", "a") in b.received
    assert ("PING", "a") in c.received
    assert network.metrics.counter("network.messages_sent") >= 2


def test_send_many_batch_delivers_after_latency(net):
    engine, network = net
    a = EchoProcess("a", network)
    b = EchoProcess("b", network)
    c = EchoProcess("c", network)
    _send_batch(network, "a", ["b", "c"])
    assert b.received == []
    engine.run_until_idle()
    assert ("PING", "a") in b.received
    assert ("PING", "a") in c.received
    # Replies (PONG) travelled through the normal send() path.
    assert ("PONG", "b") in a.received and ("PONG", "c") in a.received
    assert network.metrics.counter("network.messages_sent") == 4.0
    assert network.metrics.counter("network.messages_delivered") == 4.0
    assert network.metrics.counter("network.messages.PING") == 2.0


def test_send_many_batch_frees_each_envelope_as_it_is_delivered(net):
    engine, network = net
    EchoProcess("a", network)
    EchoProcess("b", network)
    EchoProcess("c", network)
    _send_batch(network, "a", ["b", "c"], kind="PONG")
    (buffer, _), = network._rounds.values()
    assert [message.recipient for message in buffer] == ["b", "c"]
    engine.run_until_idle()
    # The round left its queue and dropped every envelope it delivered.
    assert network._rounds == {}
    assert buffer == [None, None]
    assert not hasattr(network, "pool")


def test_send_many_batch_crashed_sender_drops_all(net):
    engine, network = net
    a = EchoProcess("a", network)
    b = EchoProcess("b", network)
    a.crash()
    _send_batch(network, "a", ["b", "b"])
    assert network._rounds == {}  # a dropped fan-out never joins a round
    engine.run_until_idle()
    assert b.received == []
    assert network.metrics.counter("network.messages_dropped") == 2.0


def test_send_many_batch_respects_partitions(net):
    engine, network = net
    EchoProcess("a", network)
    b = EchoProcess("b", network)
    c = EchoProcess("c", network)
    network.partition([{"a", "b"}, {"c"}])
    _send_batch(network, "a", ["b", "c"])
    engine.run_until_idle()
    assert ("PING", "a") in b.received
    assert c.received == []
    assert network.metrics.counter("network.messages_partitioned") == 1.0


def test_send_many_batch_message_loss():
    engine = SimulationEngine()
    network = Network(engine, latency=FixedLatency(1.0), loss_rate=0.5,
                      streams=RandomStreams(7))
    EchoProcess("a", network)
    b = EchoProcess("b", network)
    # PONG is recorded without triggering a reply, so the loss counter only
    # ever sees this batch.
    _send_batch(network, "a", ["b"] * 200, kind="PONG")
    engine.run_until_idle()
    lost = network.metrics.counter("network.messages_lost")
    assert 0 < lost < 200
    assert len(b.received) == 200 - int(lost)


def test_send_many_batch_taps_see_every_message(net):
    engine, network = net
    EchoProcess("a", network)
    EchoProcess("b", network)
    seen = []
    network.add_tap(lambda message: seen.append(message.recipient))
    _send_batch(network, "a", ["b", "b"], kind="PONG")
    engine.run_until_idle()
    assert seen == ["b", "b"]


def test_same_instant_batches_share_one_round(net):
    engine, network = net
    EchoProcess("a", network)
    b = EchoProcess("b", network)
    c = EchoProcess("c", network)
    _send_batch(network, "a", ["b"])
    _send_batch(network, "a", ["c"])
    assert engine.pending() == 2
    engine.run_until_idle()
    # Both fan-outs landed in the same per-round queue, and the two PONG
    # replies sent from it in the next: one engine entry per round.
    assert engine.batches_processed == 2
    assert b.received and c.received


class RelayProcess(Process):
    """Re-broadcasts a FAN while its ``ttl`` lasts and PINGs ``p0`` back
    with every one, so single sends and fan-outs share delivery instants."""

    handlers = {"FAN": "handle_fan", "PING": "handle_ping", "PONG": "record"}

    def __init__(self, process_id, network, peers, log):
        super().__init__(process_id, network)
        self.peers = peers
        self.log = log

    def record(self, message):
        self.log.append((self.engine.now, message.kind, message.sender,
                         self.process_id))

    def handle_fan(self, message):
        self.record(message)
        ttl = message.payload["ttl"]
        if ttl:
            self.network.send_many(self.process_id, self.peers, "FAN",
                                   {"ttl": ttl - 1})
        self.send("p0", "PING")

    def handle_ping(self, message):
        self.record(message)
        self.send(message.sender, "PONG")


def _handler_order(network_class, loss_rate, uniform):
    engine = SimulationEngine()
    streams = RandomStreams(11)
    # A zero-width uniform still draws per message but lands every message
    # of a hop on one instant, where a merged round would reorder them.
    latency = (UniformLatency(1.0, 1.0, streams) if uniform
               else FixedLatency(1.0))
    network = network_class(engine, latency=latency, loss_rate=loss_rate,
                            streams=streams)
    ids = [f"p{index}" for index in range(5)]
    log = []
    for process_id in ids:
        RelayProcess(process_id, network,
                     [other for other in ids if other != process_id], log)
    network.send_many("p0", ids[1:], "FAN", {"ttl": 3})
    engine.run_until_idle()
    return log


@pytest.mark.parametrize("loss_rate, uniform", [(0.3, False), (0.0, True)],
                         ids=["lossy", "uniform-latency"])
def test_batching_keeps_the_handler_order_when_sends_draw_randomness(
        loss_rate, uniform):
    """Under loss or a sampling latency model every send draws from an RNG
    stream, so a fan-out keeps its own engine entry and the handlers run in
    exactly the per-message order of the reference scheduler."""
    order = _handler_order(PerMessageNetwork, loss_rate, uniform)
    assert len(order) > 50 and {kind for _, kind, _, _ in order} == {
        "FAN", "PING", "PONG"}
    assert _handler_order(Network, loss_rate, uniform) == order
