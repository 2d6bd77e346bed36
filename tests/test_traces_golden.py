"""Golden-trace regression tests.

Small recorded traces are committed under ``tests/golden/``; replaying them
must reproduce the committed delivery metrics byte-for-byte in **both**
dissemination engines, and re-running the recorded scenario from the
parameters stored in the trace header must regenerate the trace file itself
byte-for-byte.  Together the two checks lock down the workload generators,
the overlay protocols, both engines and the trace format: any behavioural
drift fails here as an explicit diff against the goldens.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.runtime.registry import load_scenarios
from repro.runtime.runner import run_one
from repro.traces import (dump_metrics, dumps_trace, execute_trace,
                          read_trace, recording)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCENARIOS = ("hotspot", "adversarial-churn", "mobility")


@pytest.fixture(scope="module", autouse=True)
def _scenarios_loaded():
    load_scenarios()


def _golden(scenario: str):
    trace_path = GOLDEN_DIR / f"{scenario}.jsonl"
    metrics_path = GOLDEN_DIR / f"{scenario}.metrics.json"
    assert trace_path.exists(), f"missing golden trace {trace_path}"
    assert metrics_path.exists(), f"missing golden metrics {metrics_path}"
    return trace_path, metrics_path


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("engine", ["classic", "batched"])
def test_golden_replay_metrics_are_byte_identical(scenario, engine):
    trace_path, metrics_path = _golden(scenario)
    trace = read_trace(trace_path)
    result = execute_trace(trace, backend=f"drtree:{engine}")  # verify=True
    document = dump_metrics(trace.header.scenario, result.rows)
    assert document.encode("utf-8") == metrics_path.read_bytes(), (
        f"{scenario} replay on the {engine} engine no longer matches "
        f"{metrics_path.name}; see tests/golden/README.md before "
        "regenerating")


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_golden_traces_verify_and_cover_every_op_kind(scenario):
    trace = read_trace(_golden(scenario)[0])
    assert trace.header.scenario == scenario
    assert trace.header.params, "golden traces must carry bound parameters"
    assert len(trace.systems()) == 1
    assert len(trace.expects) == 1
    ops = {op.op for op in trace.ops()}
    assert "subscribe_all" in ops and "publish" in ops
    if scenario == "adversarial-churn":
        assert "crash" in ops
    if scenario == "mobility":
        assert "move" in ops


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_rerecording_regenerates_the_golden_trace_exactly(scenario):
    """Record-side determinism: same params → byte-identical trace file."""
    trace_path, _ = _golden(scenario)
    golden_text = trace_path.read_text(encoding="utf-8")
    params = read_trace(trace_path).header.params
    with recording(scenario=scenario) as recorder:
        outcome = run_one(scenario, dict(params))
        recorder.set_provenance(outcome.scenario, outcome.params)
    assert outcome.ok, outcome.error
    assert dumps_trace(recorder.build()) == golden_text


# --------------------------------------------------------------------------- #
# Golden journals: the hash chain is pinned byte for byte
# --------------------------------------------------------------------------- #

#: name -> (CLI arguments that regenerate it — ``{path}`` is the output —
#: and its sha256; see tests/golden/README.md).
GOLDEN_JOURNALS = {
    "synth-mixed.journal": (
        ["workload", "synth", "mixed-production", "--subscribers", "24",
         "--events", "30", "--seed", "3", "--journal", "{path}"],
        "e4dbde236982e223b3132de9f4336ac02471cb35967fdd80fed2bd659432f87a"),
    "hotspot.journal": (
        ["run", "hotspot", "--peers", "40", "--events", "30", "--seed", "5",
         "--quiet", "--journal", "{path}", "--snapshot-every", "0"],
        "b6016abb40d4be29d20bcf4db54efc3707969a675061db38ebb7ebfbb87558b1"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_JOURNALS))
def test_golden_journals_regenerate_byte_for_byte(name, tmp_path, capsys):
    import hashlib

    from repro.journal import verify_journal
    from repro.runtime.cli import main

    argv, digest = GOLDEN_JOURNALS[name]
    golden = GOLDEN_DIR / name
    assert hashlib.sha256(golden.read_bytes()).hexdigest() == digest
    journal = verify_journal(golden)  # strict: chain + canonical bytes
    assert journal.sealed == (name == "hotspot.journal")
    fresh = tmp_path / name
    assert main([arg.format(path=fresh) for arg in argv]) == 0
    assert fresh.read_bytes() == golden.read_bytes(), (
        f"{name} no longer regenerates byte-for-byte: the journal envelope, "
        "the op payloads or the hash chain moved; see tests/golden/README.md")


def test_golden_journal_exports_to_the_golden_trace(tmp_path, capsys):
    """A trace is the unchained view of a journal: same run, same bytes."""
    from repro.runtime.cli import main

    exported = tmp_path / "exported.jsonl"
    assert main(["journal", "export", str(GOLDEN_DIR / "hotspot.journal"),
                 "-o", str(exported)]) == 0
    assert exported.read_bytes() == (GOLDEN_DIR / "hotspot.jsonl").read_bytes()
