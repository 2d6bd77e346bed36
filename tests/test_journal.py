"""The durable op journal: capture, verification, crash recovery, interop.

The load-bearing tests here enforce the journal subsystem's contract
(``docs/journal.md``):

* ``test_resume_reexecutes_exactly_the_post_snapshot_tail`` — a journal
  truncated mid-run (the in-process stand-in for a SIGKILL) resumes to
  metrics byte-identical to an uninterrupted run, and the resume re-executes
  *exactly* the ops after the last snapshot — snapshots are actually used,
  and nothing is skipped without gate validation.
* ``test_tampered_record_is_detected`` / ``test_torn_tail_*`` — the hash
  chain catches content edits anywhere, while a torn final write (the only
  damage a crash can legitimately cause) is tolerated and truncated away.
* ``test_resume_raises_on_diverging_rerun`` — a journal whose chain is
  *valid* but whose ops no longer match what the scenario re-issues is a
  divergence error, never a silent partial replay.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.journal import (JournalCorruptError, JournalFormatError,
                           JournalResumeError, JournalWriter, bisect_journal,
                           journal_to_trace, journaling, read_journal,
                           resume_journal, verify_journal)
from repro.journal.records import CHAIN_FIELDS
from repro.runtime.cli import main
from repro.runtime.runner import run_one
from repro.traces.replay import dump_metrics

#: Small-but-nontrivial hotspot invocation used throughout: one bulk
#: subscribe_all op plus one publish per event.
PARAMS = {"peers": 24, "events": 12, "seed": 7, "backend": "drtree:classic"}
TOTAL_OPS = 1 + PARAMS["events"]
SNAPSHOT_EVERY = 5
GOLDEN_DIR = Path(__file__).parent / "golden"


def journaled_run(path: Path, seal: bool, snapshot_every: int = SNAPSHOT_EVERY):
    """Run hotspot under journaling(); seal only when asked."""
    with journaling(path, scenario="hotspot", params=dict(PARAMS),
                    snapshot_every=snapshot_every) as recorder:
        outcome = run_one("hotspot", dict(PARAMS))
        assert outcome.ok, outcome.error
        if seal:
            recorder.seal()
    return outcome


def truncate_to_ops(src: Path, dst: Path, keep_ops: int) -> None:
    """Keep the journal prefix up to (and including) the ``keep_ops``-th op.

    Cutting at a line boundary leaves an intact chain prefix — the same
    artifact a crash leaves behind after its last durable write.
    """
    kept, ops = [], 0
    for line in src.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["rec"] in ("final", "close"):
            break
        kept.append(line)
        if record["rec"] == "op":
            ops += 1
            if ops == keep_ops:
                break
    assert ops == keep_ops
    dst.write_text("".join(part + "\n" for part in kept), encoding="utf-8")


def rechain(lines, dst: Path) -> None:
    """Re-seal edited payload records into a fresh, *valid* hash chain."""
    with JournalWriter(dst) as writer:
        for raw in lines:
            writer.append({key: value for key, value in raw.items()
                           if key not in CHAIN_FIELDS})


@pytest.fixture(scope="module")
def reference_doc():
    """Canonical metrics document of the uninterrupted run."""
    outcome = run_one("hotspot", dict(PARAMS))
    assert outcome.ok, outcome.error
    return dump_metrics(outcome.scenario, outcome.rows)


@pytest.fixture(scope="module")
def sealed_journal(tmp_path_factory):
    path = tmp_path_factory.mktemp("journal") / "sealed.journal"
    journaled_run(path, seal=True)
    return path


# --------------------------------------------------------------------------- #
# Capture and verification
# --------------------------------------------------------------------------- #


def test_sealed_journal_round_trip(sealed_journal):
    journal = verify_journal(sealed_journal)  # strict: canonical bytes too
    assert journal.sealed and not journal.torn_tail
    assert journal.header.scenario == "hotspot"
    assert journal.header.params == PARAMS
    assert journal.header.snapshot_every == SNAPSHOT_EVERY
    assert [system.seg for system in journal.systems] == [0]
    assert journal.systems[0].backend == "drtree:classic"
    assert len(journal.ops) == TOTAL_OPS
    assert [op.n for op in journal.ops] == list(range(TOTAL_OPS))
    # Snapshots land every SNAPSHOT_EVERY ops; the latest one wins.
    assert [snap.ops for snap in journal.snapshots] == [5, 10]
    assert journal.snapshot_for(0).ops == 10
    assert 0 in journal.finals
    assert journal.valid_bytes == sealed_journal.stat().st_size


def test_ops_carry_auto_id_markers(sealed_journal):
    journal = read_journal(sealed_journal)
    publishes = [op for op in journal.ops if op.op == "publish"]
    assert len(publishes) == PARAMS["events"]
    # hotspot names its events up front, so none of the ids were
    # facade-assigned (the auto path is covered by the manual-drive test).
    assert not any(op.auto for op in publishes)
    assert [op.data["event"]["id"] for op in publishes] == [
        f"e{index}" for index in range(len(publishes))]


def test_tampered_record_is_detected(sealed_journal, tmp_path):
    lines = sealed_journal.read_text(encoding="utf-8").splitlines()
    raw = json.loads(lines[3])
    raw["t"] = raw["t"] + 1.0  # a content edit, canonical form preserved
    lines[3] = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    tampered = tmp_path / "tampered.journal"
    tampered.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
    with pytest.raises(JournalCorruptError, match="hash does not match"):
        read_journal(tampered)


def test_dropped_record_is_a_sequence_break(sealed_journal, tmp_path):
    lines = sealed_journal.read_text(encoding="utf-8").splitlines()
    del lines[4]
    gapped = tmp_path / "gapped.journal"
    gapped.write_text("".join(line + "\n" for line in lines),
                      encoding="utf-8")
    with pytest.raises(JournalCorruptError, match="sequence break"):
        read_journal(gapped)


def test_non_canonical_bytes_fail_only_strict_verification(sealed_journal,
                                                           tmp_path):
    lines = sealed_journal.read_text(encoding="utf-8").splitlines()
    # Same record content, different serialization: the chain still holds
    # (hashes cover the canonical re-dump), so only strict mode objects.
    lines[2] = json.dumps(json.loads(lines[2]), sort_keys=True,
                          separators=(", ", ": "))
    cosmetic = tmp_path / "cosmetic.journal"
    cosmetic.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
    assert len(read_journal(cosmetic).ops) == TOTAL_OPS
    with pytest.raises(JournalCorruptError, match="canonical form"):
        verify_journal(cosmetic)


def test_torn_tail_is_tolerated_but_fails_strict(sealed_journal, tmp_path):
    data = sealed_journal.read_bytes()
    cut = data.rstrip(b"\n").rfind(b"\n") + 1 + 7  # mid-final-line
    torn = tmp_path / "torn.journal"
    torn.write_bytes(data[:cut])
    journal = read_journal(torn)
    assert journal.torn_tail
    assert not journal.sealed  # the close record was the torn line
    assert journal.valid_bytes < torn.stat().st_size
    with pytest.raises(JournalCorruptError, match="torn final line"):
        verify_journal(torn)


def test_mid_file_damage_is_never_a_torn_write(sealed_journal, tmp_path):
    lines = sealed_journal.read_text(encoding="utf-8").splitlines()
    lines[5] = lines[5][: len(lines[5]) // 2]  # half a line, mid-file
    damaged = tmp_path / "damaged.journal"
    damaged.write_text("".join(line + "\n" for line in lines),
                       encoding="utf-8")
    with pytest.raises(JournalCorruptError, match="mid-file damage"):
        read_journal(damaged)


#: The first float literal of a line (hashes are hex, with no ``.``).
_FLOAT = re.compile(r"-?\d+\.\d+(?:[eE][-+]?\d+)?")


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("literal", ["1e999", "-1e999", "NaN", "Infinity"])
def test_a_non_finite_number_is_a_typed_journal_error(tmp_path, strict,
                                                      literal):
    """Regression: ``1e999`` in an op line raised a bare ``ValueError``.

    ``json.loads`` read it as ``inf``, and the hash check's canonical
    re-dump (``allow_nan=False``) then failed untyped, in both modes.
    """
    lines = (GOLDEN_DIR / "synth-mixed.journal").read_bytes().split(b"\n")
    index = next(i for i, line in enumerate(lines)
                 if b'"rec":"op"' in line and _FLOAT.search(line.decode()))
    lines[index] = _FLOAT.sub(literal, lines[index].decode(),
                              count=1).encode()
    mutant = tmp_path / "mutant.journal"
    mutant.write_bytes(b"\n".join(lines))
    with pytest.raises(JournalCorruptError, match="non-finite number"):
        read_journal(mutant, strict=strict)


@pytest.mark.parametrize("strict", [False, True])
def test_an_integer_too_long_to_convert_is_a_typed_journal_error(tmp_path,
                                                                  strict):
    """Regression: a 5 000-digit literal made ``json.loads`` raise a bare
    ``ValueError`` (Python's integer-conversion digit limit)."""
    lines = (GOLDEN_DIR / "synth-mixed.journal").read_bytes().split(b"\n")
    index = next(i for i, line in enumerate(lines)
                 if b'"rec":"op"' in line and _FLOAT.search(line.decode()))
    lines[index] = _FLOAT.sub("9" * 5000, lines[index].decode(),
                              count=1).encode()
    mutant = tmp_path / "mutant.journal"
    mutant.write_bytes(b"\n".join(lines))
    with pytest.raises(JournalCorruptError, match="too long"):
        read_journal(mutant, strict=strict)


# --------------------------------------------------------------------------- #
# Crash recovery
# --------------------------------------------------------------------------- #


def test_resume_reexecutes_exactly_the_post_snapshot_tail(tmp_path,
                                                          reference_doc):
    """The ISSUE's acceptance assertion, in-process.

    Truncate a journal to 8 ops (snapshot at 5): the resume must restore
    from the snapshot, re-execute exactly ops 5..7, and finish the run with
    metrics byte-identical to the uninterrupted reference.
    """
    full = tmp_path / "full.journal"
    journaled_run(full, seal=False)
    crashed = tmp_path / "crashed.journal"
    truncate_to_ops(full, crashed, keep_ops=8)

    surviving = read_journal(crashed)
    assert len(surviving.ops) == 8 and not surviving.sealed
    assert surviving.snapshot_for(0).ops == 5

    outcome, report = resume_journal(crashed)
    assert outcome.ok, outcome.error
    assert dump_metrics(outcome.scenario, outcome.rows) == reference_doc
    stats = report.segments[0]
    assert stats.journaled == 8
    assert stats.snapshot_ops == 5
    assert stats.reexecuted == len(surviving.ops) - surviving.snapshot_for(0).ops == 3
    # The resumed run sealed the journal in place, chain intact throughout.
    assert verify_journal(crashed).sealed


def test_resume_without_snapshots_replays_everything(tmp_path, reference_doc):
    full = tmp_path / "full.journal"
    journaled_run(full, seal=False, snapshot_every=0)
    crashed = tmp_path / "crashed.journal"
    truncate_to_ops(full, crashed, keep_ops=6)
    outcome, report = resume_journal(crashed)
    assert outcome.ok, outcome.error
    assert dump_metrics(outcome.scenario, outcome.rows) == reference_doc
    assert report.segments[0].snapshot_ops == 0
    assert report.segments[0].reexecuted == 6


def test_resume_truncates_a_torn_tail_and_continues(tmp_path, reference_doc):
    full = tmp_path / "full.journal"
    journaled_run(full, seal=False)
    crashed = tmp_path / "crashed.journal"
    truncate_to_ops(full, crashed, keep_ops=7)
    with crashed.open("ab") as handle:
        handle.write(b'{"rec":"op","seg":0')  # the torn final write
    outcome, report = resume_journal(crashed)
    assert outcome.ok, outcome.error
    assert report.torn_tail
    assert report.segments[0].journaled == 7
    assert dump_metrics(outcome.scenario, outcome.rows) == reference_doc
    assert verify_journal(crashed).sealed  # torn bytes truncated away


def test_resume_on_sharded_shm_transport(tmp_path, monkeypatch):
    """Crash recovery is engine- and transport-agnostic.

    A journaled ``drtree:sharded`` run whose shard traffic moves over the
    shared-memory transport (pinned via ``REPRO_SHARD_TRANSPORT``, the same
    knob the J1 scenario and the CI recovery matrix use) truncates and
    resumes to metrics byte-identical to its own uninterrupted run — the
    transport must be invisible to the replay gate too.
    """
    from repro.sim.sharded import TRANSPORT_ENV_VAR, shm_available

    if not shm_available():
        pytest.skip("multiprocessing.shared_memory unavailable")
    monkeypatch.setenv(TRANSPORT_ENV_VAR, "shm")
    params = dict(PARAMS, backend="drtree:sharded")

    reference = run_one("hotspot", dict(params))
    assert reference.ok, reference.error
    sharded_doc = dump_metrics(reference.scenario, reference.rows)

    full = tmp_path / "full.journal"
    with journaling(full, scenario="hotspot", params=dict(params),
                    snapshot_every=SNAPSHOT_EVERY):
        outcome = run_one("hotspot", dict(params))
        assert outcome.ok, outcome.error
    crashed = tmp_path / "crashed.journal"
    truncate_to_ops(full, crashed, keep_ops=8)

    resumed, report = resume_journal(crashed)
    assert resumed.ok, resumed.error
    assert dump_metrics(resumed.scenario, resumed.rows) == sharded_doc
    assert report.segments[0].snapshot_ops == 5
    assert report.segments[0].reexecuted == 3
    assert verify_journal(crashed).sealed


def test_unsealed_complete_journal_resumes_and_seals(tmp_path, reference_doc):
    """A run that finished but died before sealing: nothing to re-execute
    past the tail, and the resume's only real work is the seal."""
    path = tmp_path / "unsealed.journal"
    journaled_run(path, seal=False)
    outcome, report = resume_journal(path)
    assert outcome.ok, outcome.error
    assert report.segments[0].journaled == TOTAL_OPS
    assert report.segments[0].reexecuted == TOTAL_OPS - 10
    assert dump_metrics(outcome.scenario, outcome.rows) == reference_doc
    assert verify_journal(path).sealed


def test_manual_resume_keeps_auto_event_ids_in_lockstep(tmp_path):
    """Facade-assigned event ids survive a crash/resume cycle.

    The journaled prefix holds unnamed (``auto``) publishes: the tail
    replay must re-draw each id from the counter and verify it against the
    journal, while the gate adopts journaled ids *without* consuming — so
    post-resume publishes continue the id sequence exactly.
    """
    from tests.conftest import random_subscriptions

    from repro.api import SystemSpec
    from repro.spatial.filters import Event, make_space

    space = make_space("x", "y")
    subscriptions = random_subscriptions(space, 6, seed=2)
    points = [((31.0 * index) % 97, (17.0 * index) % 89)
              for index in range(6)]

    def build():
        return SystemSpec(space=make_space("x", "y"),
                          backend="drtree:classic", seed=3).build()

    def drive(system):
        system.subscribe_all(subscriptions)
        return [system.publish(Event({"x": x, "y": y})) for x, y in points]

    reference = drive(build())

    path = tmp_path / "manual.journal"
    with journaling(path, snapshot_every=3):
        victim = build()
        victim.subscribe_all(subscriptions)
        for x, y in points[:4]:
            victim.publish(Event({"x": x, "y": y}))
        # The crash: the context exits with the run incomplete, unsealed.

    journal = read_journal(path)
    publishes = [op for op in journal.ops if op.op == "publish"]
    assert all(op.auto for op in publishes)
    assert [op.data["event"]["id"] for op in publishes] == [
        f"event-{index}" for index in range(4)]
    assert journal.snapshot_for(0).ops == 3  # tail replay covers ops 3..4

    with journaling(resume=journal) as recorder:
        outcomes = drive(build())
        recorder.seal()
    assert [sorted(outcome.received) for outcome in outcomes] == [
        sorted(outcome.received) for outcome in reference]
    assert [outcome.messages for outcome in outcomes] == [
        outcome.messages for outcome in reference]
    resumed = verify_journal(path)
    assert resumed.sealed
    assert [op.data["event"]["id"] for op in resumed.ops
            if op.op == "publish"] == [f"event-{index}" for index in range(6)]


def test_sealed_journal_refuses_resume(sealed_journal):
    with pytest.raises(JournalResumeError, match="sealed"):
        resume_journal(sealed_journal)
    with pytest.raises(JournalFormatError, match="sealed"):
        JournalWriter.resume(read_journal(sealed_journal))


def test_resume_raises_on_diverging_rerun(tmp_path):
    """A validly-chained journal whose ops the scenario does not re-issue.

    The hash chain cannot catch a wholesale rewrite (the forger re-seals the
    chain); the replay gate must — by comparing every re-issued op against
    the journal and refusing to continue past the first mismatch.
    """
    full = tmp_path / "full.journal"
    journaled_run(full, seal=False, snapshot_every=0)
    crashed = tmp_path / "crashed.journal"
    truncate_to_ops(full, crashed, keep_ops=6)
    lines = [json.loads(line)
             for line in crashed.read_text(encoding="utf-8").splitlines()]
    publish = next(raw for raw in lines if raw.get("op") == "publish")
    attribute = sorted(publish["event"]["attributes"])[0]
    publish["event"]["attributes"][attribute] += 1.0
    forged = tmp_path / "forged.journal"
    rechain(lines, forged)
    verify_journal(forged)  # the forgery is chain-valid...
    with pytest.raises(JournalResumeError, match="diverged"):
        resume_journal(forged)  # ...and the gate still rejects it


# --------------------------------------------------------------------------- #
# Interop: export to trace, bisect across backends
# --------------------------------------------------------------------------- #


def test_sealed_journal_exports_a_verifying_trace(sealed_journal):
    trace = journal_to_trace(read_journal(sealed_journal))
    assert trace.header.scenario == "hotspot"
    ops = [record for record in trace.body
           if type(record).__name__ == "OpRecord"]
    assert len(ops) == TOTAL_OPS
    assert len(trace.expects) == 1  # sealed -> final rows become expects


def test_unsealed_journal_exports_without_expect_rows(tmp_path):
    path = tmp_path / "unsealed.journal"
    journaled_run(path, seal=False)
    trace = journal_to_trace(read_journal(path))
    assert trace.expects == []


def test_bisect_agreeing_backends(sealed_journal):
    result = bisect_journal(read_journal(sealed_journal),
                            "drtree:classic", "drtree:batched")
    assert result.identical
    assert result.publishes_compared == PARAMS["events"]
    assert "agree on all" in result.describe()


def test_bisect_finds_the_first_divergence(sealed_journal):
    # Flooding reaches the same subscribers but pays a different message
    # bill — exactly the outcome-level divergence bisect exists to localize.
    result = bisect_journal(read_journal(sealed_journal),
                            "drtree:classic", "flooding")
    assert not result.identical
    assert result.divergence.fields  # e.g. ['messages']
    assert "first divergence" in result.describe()


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #

CLI_ARGS = ["run", "hotspot", "--peers", str(PARAMS["peers"]),
            "--events", str(PARAMS["events"]), "--seed", str(PARAMS["seed"]),
            "--quiet"]


def test_cli_journaled_run_seals_and_verifies(tmp_path, capsys,
                                              reference_doc):
    journal = tmp_path / "run.journal"
    metrics = tmp_path / "run.metrics.json"
    loud = [arg for arg in CLI_ARGS if arg != "--quiet"]
    assert main([*loud, "--journal", str(journal), "--snapshot-every",
                 str(SNAPSHOT_EVERY), "--metrics", str(metrics)]) == 0
    assert "journaled and sealed" in capsys.readouterr().out
    assert metrics.read_text(encoding="utf-8") == reference_doc
    assert main(["journal", "verify", str(journal)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "sealed" in out


def test_cli_failed_run_leaves_resumable_journal_then_resumes(tmp_path,
                                                              capsys):
    journal = tmp_path / "run.journal"
    journaled_run(journal, seal=False)
    assert main(["journal", "verify", str(journal)]) == 0
    assert "unsealed (resumable)" in capsys.readouterr().out
    metrics = tmp_path / "resumed.metrics.json"
    assert main(["resume", str(journal), "--quiet",
                 "--metrics", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "resumed hotspot" in out
    assert json.loads(metrics.read_text(encoding="utf-8"))


def test_cli_resume_of_sealed_journal_fails_cleanly(sealed_journal, capsys):
    assert main(["resume", str(sealed_journal)]) == 1
    assert "resume failed:" in capsys.readouterr().err


def test_cli_verify_reports_corruption(sealed_journal, tmp_path, capsys):
    lines = sealed_journal.read_text(encoding="utf-8").splitlines()
    del lines[3]
    bad = tmp_path / "bad.journal"
    bad.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert main(["journal", "verify", str(bad)]) == 1
    assert "journal corrupt:" in capsys.readouterr().err


def test_cli_export_then_trace_replay_is_byte_identical(sealed_journal,
                                                        tmp_path,
                                                        reference_doc):
    trace = tmp_path / "exported.jsonl"
    assert main(["journal", "export", str(sealed_journal),
                 "-o", str(trace)]) == 0
    metrics = tmp_path / "replayed.metrics.json"
    assert main(["run", "--trace", str(trace), "--quiet",
                 "--metrics", str(metrics)]) == 0
    assert metrics.read_text(encoding="utf-8") == reference_doc


def test_cli_bisect_exit_codes(sealed_journal):
    assert main(["journal", "bisect", str(sealed_journal),
                 "drtree:classic", "drtree:batched"]) == 0
    assert main(["journal", "bisect", str(sealed_journal),
                 "drtree:classic", "flooding"]) == 1


def test_cli_journal_flag_conflicts(tmp_path, capsys):
    journal = tmp_path / "run.journal"
    assert main(["run", "--trace", str(tmp_path / "t.jsonl"),
                 "--journal", str(journal)]) == 2
    assert "cannot be combined" in capsys.readouterr().err
    assert main([*CLI_ARGS, "--snapshot-every", "5"]) == 2
    assert "--snapshot-every only applies with --journal" \
        in capsys.readouterr().err
