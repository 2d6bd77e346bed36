"""Tests for the simulated network and process base class.

The network's faults come from a :class:`~repro.sim.conditions.NetConditions`
spec, the one ``drtree:net`` applies too: the last section pins that the
simulated network's per-message verdicts are exactly the pipeline's, link
by link, whatever the interleaving of sends on other links.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.conditions import (ConditionPipeline, NetConditions,
                                  PartitionWindow)
from repro.sim.engine import SimulationEngine
from repro.sim.messages import Message
from repro.sim.network import Network
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
    network = Network(engine, delay=1.0)
    return engine, network


def _partitioned(sets, start=0.0, duration=1.0):
    """Conditions that cut ``sets`` apart during ``[start, start+duration)``."""
    return NetConditions(partitions=(
        PartitionWindow(start=start, duration=duration, sets=sets),))


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


def test_partition_blocks_cross_group_messages():
    engine = SimulationEngine()
    network = Network(engine, conditions=_partitioned((("a", "b"), ("c",))))
    a = EchoProcess("a", network)
    b = EchoProcess("b", network)
    c = EchoProcess("c", network)
    a.send("b", "PING")
    a.send("c", "PING")
    engine.run_until_idle()
    assert ("PING", "a") in b.received
    assert c.received == []
    assert network.metrics.counter("network.messages_partitioned") == 1
    # The window has closed: the partition heals.
    a.send("c", "PING")
    engine.run_until_idle()
    assert ("PING", "a") in c.received


def test_message_loss(net):
    engine, _ = net
    network = Network(engine, conditions={"loss": 0.5},
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


def test_a_lossless_send_draws_nothing_from_the_loss_stream():
    """A transparent spec (loss 0) can decide nothing, so the network
    builds no pipeline: ``send`` and ``send_many`` join the round queues
    and no per-link stream is ever created."""
    engine = SimulationEngine()
    streams = RandomStreams(5)
    network = Network(engine, conditions="loss=0", streams=streams)
    assert network.pipeline is None
    a = EchoProcess("a", network)
    EchoProcess("b", network)
    a.send("b", "PING")
    network.send_many("a", ["b", "b"], "PING", {})
    assert len(network._rounds) == 1
    engine.run_until_idle()
    assert network.metrics.counter("network.messages_delivered") == 6
    assert streams._streams == {}


def test_invalid_loss_rate():
    engine = SimulationEngine()
    with pytest.raises(ValueError, match="loss"):
        Network(engine, conditions={"loss": 1.5})


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
    """Each message arrives after the delay plus a uniform draw."""
    engine = SimulationEngine()
    network = Network(engine, delay=1.0, conditions="latency=uniform:0:2",
                      streams=RandomStreams(1))
    EchoProcess("a", network)
    b = EchoProcess("b", network)
    arrivals = []
    b.handle_pong = lambda message: arrivals.append(engine.now)
    network.send_many("a", ["b"] * 100, "PONG", {})
    engine.run_until_idle()
    assert len(arrivals) == 100 and len(set(arrivals)) > 1
    assert all(1.0 <= arrival <= 3.0 for arrival in arrivals)
    with pytest.raises(ValueError):
        Network(engine, conditions={"latency": "uniform", "delay_low": 3.0,
                                    "delay_high": 1.0})


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
    network = Network(engine, conditions="latency=uniform:0:1",
                      streams=RandomStreams(3))
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


def test_send_many_batch_respects_partitions():
    engine = SimulationEngine()
    network = Network(engine, conditions=_partitioned((("a", "b"), ("c",))))
    EchoProcess("a", network)
    b = EchoProcess("b", network)
    c = EchoProcess("c", network)
    _send_batch(network, "a", ["b", "c"])
    engine.run_until_idle()
    assert ("PING", "a") in b.received
    assert c.received == []
    assert network.metrics.counter("network.messages_partitioned") == 1.0


def test_send_many_batch_message_loss():
    engine = SimulationEngine()
    network = Network(engine, conditions={"loss": 0.5},
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


def _handler_order(network_class, conditions):
    engine = SimulationEngine()
    network = network_class(engine, conditions=conditions,
                            streams=RandomStreams(11))
    ids = [f"p{index}" for index in range(5)]
    log = []
    for process_id in ids:
        RelayProcess(process_id, network,
                     [other for other in ids if other != process_id], log)
    network.send_many("p0", ids[1:], "FAN", {"ttl": 3})
    engine.run_until_idle()
    return log


# A zero-width uniform still draws per message but lands every message of a
# hop on one instant, where a merged round would reorder them.
@pytest.mark.parametrize("conditions", [
    {"loss": 0.3},
    {"latency": "uniform", "delay_low": 0.0, "delay_high": 0.0}],
    ids=["lossy", "uniform-latency"])
def test_batching_keeps_the_handler_order_when_sends_draw_randomness(
        conditions):
    """Under loss or a sampling latency model every send draws from an RNG
    stream, so a fan-out keeps its own engine entry and the handlers run in
    exactly the per-message order of the reference scheduler."""
    order = _handler_order(PerMessageNetwork, conditions)
    assert len(order) > 50 and {kind for _, kind, _, _ in order} == {
        "FAN", "PING", "PONG"}
    assert _handler_order(Network, conditions) == order


# --------------------------------------------------------------------- #
# The simulated clock applies the pipeline's verdicts, link by link
# --------------------------------------------------------------------- #


class Sink(Process):
    """Records every delivery with its instant, and never replies."""

    handlers = {"PING": "record"}

    def __init__(self, process_id, network, log):
        super().__init__(process_id, network)
        self.log = log

    def record(self, message):
        self.log.append((id(message), self.engine.now))


PEERS = ("a", "b", "c")

specs = st.builds(
    NetConditions,
    loss=st.sampled_from([0.0, 0.2, 0.6]),
    latency=st.sampled_from(["none", "uniform"]),
    delay_high=st.just(2.0),
    reorder=st.sampled_from([0.0, 0.3]),
    duplicate=st.sampled_from([0.0, 0.3]),
    drop_first=st.integers(0, 2),
    partitions=st.sampled_from([(), (PartitionWindow(
        start=1.0, duration=2.0, sets=(("a",), ("b", "c"))),)]),
).filter(lambda spec: not spec.is_transparent)

#: One send: (instant, sender, recipients); several recipients make it a
#: ``send_many`` fan-out.
sends = st.lists(st.tuples(
    st.integers(0, 4).map(float), st.sampled_from(PEERS),
    st.lists(st.sampled_from(PEERS), min_size=1, max_size=3)),
    min_size=1, max_size=25)


def _run_sends(spec, seed, plan):
    """Run ``plan`` on a simulated network; return the tapped frames, the
    delivery log and the network."""
    engine = SimulationEngine()
    network = Network(engine, conditions=spec, streams=RandomStreams(seed))
    tapped, log = [], []
    network.add_tap(tapped.append)
    for peer in PEERS:
        Sink(peer, network, log)
    for when, sender, recipients in plan:
        if len(recipients) == 1:
            engine.schedule_at(when, lambda s=sender, r=recipients[0]:
                               network.send(Message(s, r, "PING", {})))
        else:
            engine.schedule_at(when, lambda s=sender, rs=recipients:
                               network.send_many(s, rs, "PING", {}))
    engine.run_until_idle()
    return tapped, log, network


def _link_verdicts(tapped, log):
    """Each link's verdicts as the network applied them, in send order: a
    message's arrival instant, or ``None`` when it was dropped."""
    arrivals = {}
    for key, now in log:
        assert key not in arrivals, "a duplicate reached the protocol"
        arrivals[key] = now
    verdicts = {}
    for message in tapped:
        verdicts.setdefault((message.sender, message.recipient), []).append(
            arrivals.get(id(message)))
    return verdicts


@settings(max_examples=60, deadline=None)
@given(spec=specs, seed=st.integers(0, 2**16), plan=sends)
def test_the_simulated_network_applies_the_pipelines_verdicts(spec, seed,
                                                              plan):
    """Tap plus drop counters read back exactly
    :meth:`ConditionPipeline.decide_sequence` over the same frames."""
    tapped, log, network = _run_sends(spec, seed, plan)
    reference = ConditionPipeline(
        spec, RandomStreams(seed), scope="network.conditions"
    ).decide_sequence([(message.sender, message.recipient, message.sent_at)
                       for message in tapped])
    expected = {}
    for message, decision in zip(tapped, reference):
        expected.setdefault((message.sender, message.recipient), []).append(
            None if decision.drop else
            message.sent_at + (network.delay + decision.delay))
    assert _link_verdicts(tapped, log) == expected
    metrics = network.metrics
    for reason in ("lost", "partitioned", "drop_first"):
        assert metrics.counter(f"network.messages_{reason}") == sum(
            decision.drop == reason for decision in reference)
    assert metrics.counter("network.messages_duplicated") == sum(
        decision.copies > 1 for decision in reference)
    assert metrics.counter("network.messages_delivered") == len(log)


@settings(max_examples=40, deadline=None)
@given(spec=specs, seed=st.integers(0, 2**16), plan=sends,
       order=st.randoms(use_true_random=False))
def test_interleaving_other_links_changes_no_links_verdicts(spec, seed,
                                                            plan, order):
    """Each link draws from its own stream: sending the same per-link
    frames in another order across links gives every link the same
    verdicts."""
    frames = [(when, sender, recipient)
              for when, sender, recipients in sorted(plan, key=lambda s: s[0])
              for recipient in recipients]
    shuffled = list(frames)
    order.shuffle(shuffled)
    # Keep each link's own frame order (and every frame's instant).
    by_link = {}
    for frame in frames:
        by_link.setdefault(frame[1:], []).append(frame)
    interleaved = [by_link[frame[1:]].pop(0) for frame in shuffled]

    def verdicts(sequence):
        tapped, log, _ = _run_sends(
            spec, seed, [(when, sender, [recipient])
                         for when, sender, recipient in sequence])
        return _link_verdicts(tapped, log)

    assert verdicts(interleaved) == verdicts(frames)
