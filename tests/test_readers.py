"""Every reader of untrusted bytes returns a value or raises its typed error.

One row per reader that already promises a typed error.  Each row is seeded
with committed goldens; Hypothesis damages them (byte flips, truncations,
insertions, swaps of one number literal for a value no writer emits) and
the reader must return or raise exactly its row's error, within a time
bound.  A bare ``ValueError``, ``KeyError`` or ``OverflowError`` escaping a
reader fails the row.  What the tolerant journal reader accepts must also
be a chain that strict verification accepts from scratch.

The restore rows hold ``Broker.restore`` to the same rule: damaged or random
bytes restore or raise :class:`SnapshotStateError`, a failed restore leaves
the broker as it was, a hostile pickle runs nothing, and a blob with a true
digest cannot make the reader allocate what it does not hold.  The socket's
frame decoder is held to it too: bytes off the wire decode to messages or
raise :class:`NetProtocolError`, and a hostile frame runs nothing.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import re
import struct
import tracemalloc
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import snapshot
from repro.analysis.digests import delivered_digest
from repro.api import SystemSpec
from repro.api.capabilities import SnapshotStateError
from repro.journal import JournalError
from repro.journal.io import read_journal, verify_journal
from repro.net import FrameDecoder, NetProtocolError, encode_frame
from repro.sim.messages import Message
from repro.sim.sharded import TRANSPORT_ENV_VAR
from repro.traces import TraceFormatError, loads_trace, read_trace
from repro.traces.io import dump_record, load_record
from repro.wire import FrameSplitter, frame
from repro.workloads import uniform_subscriptions
from repro.workloads.events import uniform_events

GOLDEN_DIR = Path(__file__).parent / "golden"
TRACES = ("hotspot.jsonl", "adversarial-churn.jsonl", "mobility.jsonl",
          "synth-mixed.jsonl")
JOURNALS = ("hotspot.journal", "synth-mixed.journal")

#: Numbers no canonical writer emits, or emits only in other places.
LITERALS = ("1e999", "-1e999", "NaN", "-Infinity", "-0", "1e308",
            "9" * 400, "9" * 5000)
_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")

#: JSON's own alphabet (structure, strings, numbers, whitespace): inserted
#: runs of it keep a line parseable far more often than random bytes do.
JSON_ALPHABET = '{}[]:,"\\0123456789e-. \t\n\r'


class _TornStream(Exception):
    """The row's error for the frame splitter."""


@st.composite
def damaged(draw, golden: bytes) -> bytes:
    """``golden`` with one to three damages applied."""
    data = bytearray(golden)
    for _ in range(draw(st.integers(1, 3), label="damages")):
        kind = draw(st.sampled_from(("flip", "truncate", "insert", "number")),
                    label="kind")
        if not data:
            break
        at = draw(st.integers(0, len(data) - 1), label="at")
        if kind == "flip":
            data[at] ^= 1 << draw(st.integers(0, 7), label="bit")
        elif kind == "truncate":
            del data[at:]
        elif kind == "insert":
            data[at:at] = draw(st.one_of(
                st.binary(min_size=1, max_size=8),
                st.text(JSON_ALPHABET, min_size=1, max_size=8).map(
                    str.encode)), label="inserted")
        else:
            numbers = list(_NUMBER.finditer(bytes(data)))
            if numbers:
                match = numbers[at % len(numbers)]
                literal = draw(st.sampled_from(LITERALS), label="literal")
                data[match.start():match.end()] = literal.encode()
    return bytes(data)


def _read_trace_file(tmp_path, data: bytes):
    path = tmp_path / "damaged.jsonl"
    path.write_bytes(data)
    return read_trace(path)


def _loads_trace(tmp_path, data: bytes):
    return loads_trace(data.decode("utf-8", errors="replace"))


def _read_journal(strict: bool):
    def read(tmp_path, data: bytes):
        path = tmp_path / "damaged.journal"
        path.write_bytes(data)
        return read_journal(path, strict=strict)
    return read


def _read_journal_tolerant(tmp_path, data: bytes):
    """The tolerant read, and what it accepted verified from scratch.

    Tolerance covers a torn final line and non-canonical bytes, never a
    record outside the chain.  The accepted prefix is therefore either the
    source's own bytes or bytes whose records, dumped canonically again,
    pass :func:`verify_journal` and end on the chain head the read reported
    (the source's bytes are canonical, so one check covers both).
    """
    journal = _read_journal(False)(tmp_path, data)
    lines = data[:journal.valid_bytes].split(b"\n")
    path = tmp_path / "accepted.journal"
    path.write_text("".join(dump_record(load_record(line.decode("utf-8")))
                            + "\n" for line in lines if line.strip()),
                    encoding="utf-8")
    try:
        verified = verify_journal(path)
    except JournalError as exc:
        raise AssertionError(f"accepted a prefix that does not verify: "
                             f"{exc}") from exc
    assert ((verified.next_seq, verified.last_hash)
            == (journal.next_seq, journal.last_hash))
    return journal


def _verify_journal(tmp_path, data: bytes):
    path = tmp_path / "damaged.journal"
    path.write_bytes(data)
    return verify_journal(path)


def _split_frames(tmp_path, data: bytes):
    splitter = FrameSplitter(_TornStream)
    payloads = []
    for start in range(0, len(data), 257):
        payloads.extend(splitter.feed(data[start:start + 257]))
    return payloads


def _framed(name: str) -> bytes:
    """A golden's lines as one framed byte stream."""
    lines = (GOLDEN_DIR / name).read_bytes().splitlines()
    return b"".join(frame(line) for line in lines)


def _protocol_messages():
    """Every message a small join-built overlay and four publishes send."""
    workload = uniform_subscriptions(12, seed=2)
    broker = SystemSpec(workload.space, seed=2).build()
    sent = []
    broker.simulation.network.add_tap(sent.append)
    broker.subscribe_all(list(workload), bulk=False)
    broker.publish_many(uniform_events(workload.space, 4, seed=2))
    return sent


PROTOCOL_FRAMES = [encode_frame(message) for message in _protocol_messages()]


def _decode_stream(tmp_path, data: bytes):
    decoder = FrameDecoder()
    messages = []
    for start in range(0, len(data), 257):
        messages.extend(decoder.feed(data[start:start + 257]))
    assert all(type(message) is Message for message in messages)
    return messages


def _decode_payload(tmp_path, data: bytes):
    """``data`` framed under its true CRC, so the damage reaches the
    unpickler."""
    return _decode_stream(tmp_path, frame(data))


#: name -> (reader, its error, golden seeds)
ROWS = {
    "read_trace": (_read_trace_file, TraceFormatError,
                   [(GOLDEN_DIR / name).read_bytes() for name in TRACES]),
    "loads_trace": (_loads_trace, TraceFormatError,
                    [(GOLDEN_DIR / name).read_bytes() for name in TRACES]),
    "read_journal": (_read_journal_tolerant, JournalError,
                     [(GOLDEN_DIR / name).read_bytes() for name in JOURNALS]),
    "read_journal_strict": (_read_journal(True), JournalError,
                            [(GOLDEN_DIR / name).read_bytes()
                             for name in JOURNALS]),
    "verify_journal": (_verify_journal, JournalError,
                       [(GOLDEN_DIR / name).read_bytes()
                        for name in JOURNALS]),
    "FrameSplitter": (_split_frames, _TornStream,
                      [_framed(name) for name in ("hotspot.jsonl",
                                                  "hotspot.journal")]),
    "FrameDecoder": (_decode_stream, NetProtocolError,
                     [b"".join(PROTOCOL_FRAMES[start:start + 40])
                      for start in range(0, len(PROTOCOL_FRAMES), 40)]),
    "FrameDecoder_payload": (_decode_payload, NetProtocolError,
                             [data[12:] for data in PROTOCOL_FRAMES]),
}


@pytest.mark.parametrize("row", list(ROWS))
def test_every_golden_seed_reads(tmp_path, row):
    reader, _, seeds = ROWS[row]
    for seed in seeds:
        assert reader(tmp_path, seed) is not None


@pytest.mark.parametrize("row", list(ROWS))
def test_damaged_input_returns_or_raises_the_rows_error(tmp_path_factory,
                                                        row):
    reader, error, seeds = ROWS[row]
    tmp_path = tmp_path_factory.mktemp(row)

    @settings(max_examples=100, deadline=timedelta(seconds=2),
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def check(data):
        seed = data.draw(st.sampled_from(seeds), label="seed")
        mutant = data.draw(damaged(seed), label="mutant")
        try:
            reader(tmp_path, mutant)
        except error:
            pass

    check()


# --------------------------------------------------------------------------- #
# Restore rows
# --------------------------------------------------------------------------- #

SNAPSHOTS = ("classic", "sharded-2", "batched", "96aa8df-classic",
             "96aa8df-sharded-2", "96aa8df-flooding")
POPULATION = uniform_subscriptions(40, seed=3)
#: The sharded rows run inline unless the environment pins a transport.
SHARD_TRANSPORT = "auto" if os.environ.get(TRANSPORT_ENV_VAR) else "inline"
EVENTS = uniform_events(POPULATION.space, 20, seed=3)


def _broker(backend: str, options=None):
    """A small broker with subscribers and a published history."""
    broker = SystemSpec(POPULATION.space, backend=backend, seed=3,
                        engine_options=options).build()
    broker.subscribe_all(list(POPULATION))
    broker.publish_many(EVENTS[:10])
    return broker


def _restore_seeds(backend: str):
    fresh = _broker(backend)
    return [fresh.snapshot()] + [
        gzip.decompress((GOLDEN_DIR / f"snapshot-{name}.pickle.gz")
                        .read_bytes()) for name in SNAPSHOTS]


@st.composite
def flipped_or_truncated(draw, seeds):
    data = bytearray(draw(st.sampled_from(seeds), label="seed"))
    if draw(st.booleans(), label="truncate"):
        return bytes(data[:draw(st.integers(0, len(data) - 1), label="at")])
    for _ in range(draw(st.integers(1, 3), label="flips")):
        at = draw(st.integers(0, len(data) - 1), label="at")
        data[at] ^= 1 << draw(st.integers(0, 7), label="bit")
    return bytes(data)


@pytest.mark.parametrize("backend", ["drtree:classic", "flooding"])
def test_damaged_snapshots_restore_or_raise_and_leave_the_broker(backend):
    seeds = _restore_seeds(backend)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(blob=st.one_of(st.binary(max_size=64),
                          flipped_or_truncated(seeds)))
    def check(blob):
        broker = _broker(backend)
        try:
            broker.restore(blob)
        except SnapshotStateError:
            twin = _broker(backend)
            broker.publish_many(EVENTS[10:])
            twin.publish_many(EVENTS[10:])
            assert delivered_digest(broker) == delivered_digest(twin)
            assert broker.summary() == twin.summary()

    check()


def _hostile(tmp_path, name):
    """A pickle that would run something, and the file it would make."""
    marker = tmp_path / "ran"
    touch = b"S'touch " + str(marker).encode() + b"'\n"
    if name == "os.system":
        return b"cos\nsystem\n(" + touch + b"tR.", marker
    if name == "getattr":
        return (b"cbuiltins\ngetattr\n(cos\nsystem\nS'__call__'\ntR("
                + touch + b"tR."), marker
    journal = tmp_path / "opened.journal"
    return (b"crepro.journal.io\nJournalWriter\n(S'" + str(journal).encode()
            + b"'\ntR."), journal


@pytest.mark.parametrize("name, marked", [
    ("os.system", False), ("os.system", True), ("getattr", True),
    ("JournalWriter", False), ("JournalWriter", True)])
def test_a_hostile_snapshot_runs_nothing(tmp_path, name, marked):
    """Under either marker (the current one with the pickle's true digest,
    so the allow-list is what refuses it) or none."""
    pickled, effect = _hostile(tmp_path, name)
    blobs = ([snapshot.MAGIC + hashlib.sha256(pickled).digest() + pickled,
              snapshot.MAGIC_V1 + pickled] if marked else [pickled])
    for blob in blobs:
        for backend in ("drtree:classic", "flooding"):
            with pytest.raises(SnapshotStateError,
                               match="does not deserialize"):
                SystemSpec(POPULATION.space,
                           backend=backend).build().restore(blob)
    assert not effect.exists()


def test_a_hostile_shard_blob_is_refused_by_the_worker(tmp_path):
    options = {"shards": 2, "transport": SHARD_TRANSPORT}
    broker = _broker("drtree:sharded", options)
    try:
        payload = snapshot.load(broker.snapshot(), "pubsub", broker.backend)
    finally:
        broker.close()
    blob, marker = _hostile(tmp_path, "os.system")
    payload["sim"]["blobs"][0] = blob
    target = SystemSpec(POPULATION.space, backend="drtree:sharded", seed=3,
                        engine_options=options).build()
    twin = _broker("drtree:sharded", options)
    try:
        with pytest.raises(SnapshotStateError, match="shard 0: .*deserialize"):
            target.restore(snapshot.dump(payload))
        # The refused restore left the target as fresh as its twin was.
        target.subscribe_all(list(POPULATION))
        target.publish_many(EVENTS[:10])
        assert delivered_digest(target) == delivered_digest(twin)
        assert target.summary() == twin.summary()
    finally:
        target.close()
        twin.close()
    assert not marker.exists()


@pytest.mark.parametrize("name", ["os.system", "getattr", "JournalWriter"])
def test_a_hostile_frame_runs_nothing(tmp_path, name):
    """A frame under its true CRC whose pickle reaches a global outside the
    protocol's three is refused before that global is looked up."""
    pickled, effect = _hostile(tmp_path, name)
    with pytest.raises(NetProtocolError, match="never sends"):
        FrameDecoder().feed(frame(pickled))
    assert not effect.exists()


#: A count or index 64 MiB beyond a blob of a few bytes, per opcode that
#: carries one wider than a byte (``PUT``'s is a text line).
_MIB64 = 64 << 20
UNBACKED = {
    "BINBYTES": b"B" + struct.pack("<I", _MIB64),
    "BINBYTES8": b"\x8e" + struct.pack("<Q", _MIB64),
    "BYTEARRAY8": b"\x96" + struct.pack("<Q", 8) + b"8 bytes.",
    "BINUNICODE": b"X" + struct.pack("<I", _MIB64),
    "BINUNICODE8": b"\x8d" + struct.pack("<Q", _MIB64),
    "BINSTRING": b"T" + struct.pack("<i", _MIB64),
    "LONG4": b"\x8b" + struct.pack("<i", _MIB64),
    "FRAME": b"\x95" + struct.pack("<Q", _MIB64),
    "LONG_BINPUT": b"N" + b"r" + struct.pack("<I", _MIB64 >> 3),
    "PUT": b"N" + b"p" + str(_MIB64 >> 3).encode() + b"\n",
}


@pytest.mark.parametrize("opcode", list(UNBACKED))
def test_a_true_digest_cannot_make_load_allocate_what_the_blob_lacks(opcode):
    """Each blob carries its pickle's true digest, so only the pre-scan
    stands between the count and the unpickler, which would allocate it
    (a bytes or bytearray) or grow its memo to it (an index) before finding
    the bytes missing."""
    pickled = b"\x80\x05" + UNBACKED[opcode] + b"N."
    blob = snapshot.MAGIC + hashlib.sha256(pickled).digest() + pickled
    tracemalloc.start()
    try:
        with pytest.raises(SnapshotStateError, match="does not deserialize"):
            snapshot.load(blob, "pubsub")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"{opcode}: {peak} bytes allocated"
