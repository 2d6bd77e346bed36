"""The hash-chained journal record model.

A *journal* is the durable write-ahead form of a run: one canonical JSON
object per line, where every record carries its position in a SHA-256 hash
chain — ``seq`` (dense, starting at 0), ``prev`` (the previous record's
hash; all zeros for the first record) and ``hash`` (the SHA-256 of the
record's canonical JSON with the ``hash`` field removed).  Any flipped byte,
reordered record or mid-file truncation breaks the chain and is detected on
open (:func:`repro.journal.io.read_journal`).

Record kinds (the ``rec`` field):

``header``
    First record: format identity, scenario provenance and the snapshot
    cadence the run was journaled with.
``system``
    Creation of one broker (a *segment*): the trace format's
    :class:`~repro.traces.format.SystemRecord` — space, backend, seed,
    config, stabilize budget, typed engine options — without the trace
    envelope's legacy ``batch`` flag and with ``engine_options`` always
    present.
``op``
    One facade operation: the trace format's
    :class:`~repro.traces.format.OpRecord` plus ``n`` (the dense
    per-segment op index) and, for ``publish``, ``auto`` — whether the
    facade assigned the event id from its counter (resume must re-advance
    the counter for those).
``snapshot``
    A full broker snapshot taken after ``ops`` operations of its segment:
    the pickle from ``Broker.snapshot()``, compressed at zlib level
    :data:`SNAPSHOT_ZLIB_LEVEL` and base64-armored, with its own digest so
    blob corruption is reported precisely.
``final``
    The canonical delivery-metrics row of one segment at clean completion.
``close``
    Clean end of the run; a journal without it records an interrupted run
    and is what ``repro resume`` operates on.

Header, system and op records are parsed by the trace format's parsers
reading the :data:`JOURNAL` envelope; only the journal-specific kinds
(``snapshot``, ``final``) are parsed here.
"""

from __future__ import annotations

import base64
import hashlib
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.journal.errors import JournalCorruptError, JournalFormatError
from repro.traces.format import (Envelope, OpRecord, SystemRecord, _require,
                                 number_to_float, parse_header)
from repro.traces.io import dump_record

#: The journal format identifier written into every header.
JOURNAL_FORMAT = "repro-journal"
#: The current (and only) journal schema version.
JOURNAL_VERSION = 1
#: ``prev`` of the first record in the chain.
GENESIS_HASH = "0" * 64

#: Fields the chain adds to every record.
CHAIN_FIELDS = ("seq", "prev", "hash")

#: The journal envelope the shared record parsers read.
JOURNAL = Envelope(noun="journal", error=JournalFormatError, kind_key="rec",
                   format=JOURNAL_FORMAT, versions=(JOURNAL_VERSION,),
                   op_extras=("n", "auto", *CHAIN_FIELDS))


def chain_hash(record: Mapping[str, Any]) -> str:
    """The SHA-256 of ``record`` without its ``hash`` field, canonical form."""
    body = {key: value for key, value in record.items() if key != "hash"}
    return hashlib.sha256(dump_record(body).encode("utf-8")).hexdigest()


def seal_record(record: Dict[str, Any], seq: int, prev: str) -> Dict[str, Any]:
    """Attach chain fields to a payload record and return it."""
    record["seq"] = seq
    record["prev"] = prev
    record["hash"] = chain_hash(record)
    return record


# --------------------------------------------------------------------------- #
# Snapshot state codec
# --------------------------------------------------------------------------- #


def encode_state(blob: bytes) -> Tuple[str, str]:
    """Armor a ``Broker.snapshot()`` blob for a JSON record.

    Returns ``(base64 text, sha256 of the raw blob)``; the inner digest
    pins the blob independently of the chain so a corrupt snapshot is
    reported as such rather than as a failed unpickle.
    """
    return (base64.b64encode(blob).decode("ascii"),
            hashlib.sha256(blob).hexdigest())


def decode_state(state: str, digest: str,
                 line: Optional[int] = None) -> bytes:
    """Recover and verify the snapshot blob of a ``snapshot`` record."""
    try:
        blob = base64.b64decode(state.encode("ascii"), validate=True)
    except Exception as exc:  # noqa: BLE001 - any decode failure is corruption
        raise JournalCorruptError(f"snapshot state is not valid base64: {exc}",
                                  line=line) from exc
    if hashlib.sha256(blob).hexdigest() != digest:
        raise JournalCorruptError("snapshot blob does not match its digest",
                                  line=line)
    return blob


#: zlib level of snapshot blobs.  A snapshot is taken inside the run it
#: protects, so speed wins: on an 894 kB broker pickle level 1 took 7.9 ms
#: for 219 kB and level 6 27.6 ms for 185 kB (one core of a 2-vCPU host).
#: Decompression does not depend on the level, so journals written at any
#: level read alike.
SNAPSHOT_ZLIB_LEVEL = 1


def compress_snapshot(payload: bytes) -> bytes:
    """The (cheap, deterministic) compression snapshots travel in."""
    return zlib.compress(payload, SNAPSHOT_ZLIB_LEVEL)


def decompress_snapshot(blob: bytes) -> bytes:
    try:
        return zlib.decompress(blob)
    except zlib.error as exc:
        raise JournalCorruptError(
            f"snapshot blob does not decompress: {exc}") from exc


# --------------------------------------------------------------------------- #
# The journal envelope of the shared records, and the journal-only kinds
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class JournalHeader:
    """Provenance of a journaled run."""

    scenario: Optional[str] = None
    params: Optional[Dict[str, Any]] = None
    snapshot_every: int = 0
    version: int = JOURNAL_VERSION

    def to_json(self) -> Dict[str, Any]:
        return {"rec": "header", "format": JOURNAL_FORMAT,
                "version": self.version, "scenario": self.scenario,
                "params": self.params, "snapshot_every": self.snapshot_every}


def system_to_json(system: SystemRecord) -> Dict[str, Any]:
    """One broker's construction record in the journal envelope."""
    return {"rec": "system", "seg": system.seg, "t": system.t,
            "space": list(system.space), "backend": system.backend,
            "seed": system.seed,
            "stabilize_rounds": system.stabilize_rounds,
            "config": dict(system.config),
            "engine_options": (dict(system.engine_options)
                               if system.engine_options else None)}


def op_to_json(op: OpRecord) -> Dict[str, Any]:
    """One facade operation in the journal envelope (``op.n`` must be set)."""
    record = {"rec": "op", "seg": op.seg, "n": op.n, "t": op.t,
              "op": op.op, **op.data}
    if op.op == "publish":
        record["auto"] = bool(op.auto)
    return record


@dataclass(frozen=True)
class JournalSnapshot:
    """A full broker snapshot, valid after ``ops`` operations of ``seg``."""

    seg: int
    ops: int
    t: float
    blob: bytes = field(repr=False)

    def to_json(self) -> Dict[str, Any]:
        state, digest = encode_state(self.blob)
        return {"rec": "snapshot", "seg": self.seg, "ops": self.ops,
                "t": self.t, "state": state, "sha256": digest}


def parse_journal_header(raw: Mapping[str, Any],
                         line: int = 1) -> JournalHeader:
    version, scenario, params = parse_header(raw, line, JOURNAL)
    return JournalHeader(
        scenario=scenario, params=params, version=version,
        snapshot_every=_require(raw, "snapshot_every", (int,), line, "header",
                                JournalFormatError))


def parse_snapshot(raw: Mapping[str, Any], line: int) -> JournalSnapshot:
    error = JournalFormatError
    state = _require(raw, "state", (str,), line, "snapshot", error)
    digest = _require(raw, "sha256", (str,), line, "snapshot", error)
    return JournalSnapshot(
        seg=_require(raw, "seg", (int,), line, "snapshot", error),
        ops=_require(raw, "ops", (int,), line, "snapshot", error),
        t=number_to_float(_require(raw, "t", (int, float), line, "snapshot",
                                   error), "snapshot record field 't'", error,
                          line),
        blob=decode_state(state, digest, line=line),
    )


def parse_final(raw: Mapping[str, Any], line: int) -> Tuple[int, Dict[str, Any]]:
    row = _require(raw, "row", (dict,), line, "final", JournalFormatError)
    return (_require(raw, "seg", (int,), line, "final", JournalFormatError),
            dict(row))
