"""Smoke and shape tests for the experiment harness (small-scale runs).

Every scenario runs through the registry (``Scenario.run``), the same
bind-and-coerce path the CLI and the runner take.  The claims each default
run reproduces are pinned separately, in ``tests/test_paper_claims.py``.
"""

from __future__ import annotations

import pytest

from repro.experiments.harness import ExperimentResult, format_table
from repro.runtime.registry import load_scenarios


def _run(name: str, **overrides) -> ExperimentResult:
    return load_scenarios().get(name).run(**overrides)


# --------------------------------------------------------------------------- #
# Harness plumbing
# --------------------------------------------------------------------------- #


def test_experiment_result_table_rendering():
    result = ExperimentResult("EX", "demo")
    result.add_row(a=1, b=2.5)
    result.add_row(a=2, b=0.001)
    result.add_note("a note")
    table = result.to_table()
    assert "EX: demo" in table
    assert "a note" in table
    assert result.column("a") == [1, 2]


def test_format_table_empty():
    assert "(no rows)" in format_table([])


# --------------------------------------------------------------------------- #
# E1 — running example
# --------------------------------------------------------------------------- #


def test_e1_paper_example_reproduces_claims():
    result = _run("paper_example")
    rows = {row["event"]: row for row in result.rows}
    assert set(rows) == {"a", "b", "c", "d"}
    assert all(row["false_negatives"] == 0 for row in result.rows)
    assert rows["a"]["delivered"] == 4
    assert rows["a"]["false_positives"] <= 1
    assert rows["d"]["delivered"] == 0
    assert any("height" in note for note in result.notes)


# --------------------------------------------------------------------------- #
# E2-E5 — structural/latency scaling (reduced sizes)
# --------------------------------------------------------------------------- #


def test_e2_height_within_bounds():
    result = _run("height", peers=48)
    assert [(row["m"], row["N"]) for row in result.rows] == [
        (m, n) for m in (2, 3, 4) for n in (16, 24, 48)]
    assert all(row["legal"] and row["within_bound"] for row in result.rows)
    for m in (2, 3, 4):
        heights = [row["height"] for row in result.rows if row["m"] == m]
        assert heights[0] <= heights[-1] + 1  # no shrinking with N


def test_e3_memory_within_bounds():
    result = _run("memory", peers=48)
    assert all(row["legal"] and row["within_bound"] for row in result.rows)


def test_e4_join_cost_logarithmic():
    result = _run("join_cost", peers=48, probes=5)
    assert all(row["legal"] for row in result.rows)
    assert all(row["mean_hops"] <= row["bound"] for row in result.rows)


def test_e5_latency_bounded_and_lossless():
    result = _run("latency", peers=48, events=10)
    assert all(row["false_negatives"] == 0 for row in result.rows)
    assert all(row["mean_hops"] <= row["bound"] for row in result.rows)


# --------------------------------------------------------------------------- #
# E6-E7 — accuracy
# --------------------------------------------------------------------------- #


def test_e6_accuracy_cells():
    result = _run("false_positives", peers=30, events=10,
                  workload="containment_chain")
    assert [row["events"] for row in result.rows] == [
        "uniform", "biased", "targeted"]
    assert all(row["false_negatives"] == 0 for row in result.rows)
    assert all(row["fp_rate_pct"] < 50.0 for row in result.rows)


def test_e7_split_methods_rows():
    result = _run("split_methods", peers=25, events=10)
    methods = {row["method"] for row in result.rows}
    assert methods == {"linear", "quadratic", "rstar"}
    assert all(row["false_negatives"] == 0 for row in result.rows)


# --------------------------------------------------------------------------- #
# E8-E10 — faults, churn, baselines
# --------------------------------------------------------------------------- #


def test_e8_recovery_all_fault_classes():
    result = _run("recovery", peers=32)
    assert {row["fault"] for row in result.rows} == {
        "controlled_leave", "crash", "corruption", "combined"
    }
    assert all(row["recovered"] for row in result.rows)


def test_e9_churn_shape():
    result = _run("churn", peers=20, trials=2)
    assert result.column("rate") == [0.5, 1.0, 2.0, 4.0]
    finite = [row["simulated_mean"] for row in result.rows
              if row["simulated_mean"] != float("inf")]
    assert finite == sorted(finite, reverse=True)


# --------------------------------------------------------------------------- #
# W1-W3 — adversarial workload scenarios (trace-replayable)
# --------------------------------------------------------------------------- #


def test_w1_hotspot_delivers_losslessly():
    result = _run("hotspot", peers=30, events=20, seed=1)
    (row,) = result.rows
    assert row["false_negatives"] == 0.0
    assert row["delivery_rate"] == 1.0
    assert row["events"] == 20.0
    assert row["subscribers"] == 30


def test_w1_hotspot_engine_equivalence():
    classic = _run("hotspot", peers=30, events=20, seed=1,
                   backend="drtree:classic")
    batched = _run("hotspot", peers=30, events=20, seed=1,
                   backend="drtree:batched")
    assert classic.rows == batched.rows


def test_w2_adversarial_churn_crashes_targets_and_recovers():
    result = _run("adversarial-churn", peers=30, rounds=3,
                  events_per_round=6, seed=1)
    (row,) = result.rows
    # 3 baseline crashes + 1 surge victim in the middle round.
    assert row["subscribers"] == 30 - 4
    assert row["events"] == 18.0
    # survivors still get almost everything between repairs
    assert row["delivery_rate"] >= 0.8
    assert any("crashed 4 root-targeted peers" in note
               for note in result.notes)


def test_w2_adversarial_churn_parent_target():
    overrides = dict(peers=30, rounds=2, events_per_round=5, surge=0,
                     target="parent", seed=1)
    result = _run("adversarial-churn", **overrides)
    (row,) = result.rows
    assert row["subscribers"] == 28
    assert result.rows == _run("adversarial-churn", **overrides).rows  # deterministic


def test_w2_adversarial_churn_surge_only_configuration():
    # crashes_per_round=0 disables the baseline window, like surge=0 does.
    result = _run("adversarial-churn", peers=24, rounds=2, events_per_round=5,
                  crashes_per_round=0, surge=1, seed=1)
    (row,) = result.rows
    assert row["subscribers"] == 23  # only the single surge victim crashed


def test_w3_mobility_moves_walkers_without_losses():
    result = _run("mobility", peers=24, walkers=3, steps=2,
                  events_per_step=6, seed=1)
    (row,) = result.rows
    assert row["subscribers"] == 24  # moves preserve the population
    assert row["false_negatives"] == 0.0
    assert row["events"] == 12.0
    assert any("3 walkers x 2 steps = 6 subscription moves" in note
               for note in result.notes)


def test_w3_mobility_validation():
    with pytest.raises(ValueError):
        _run("mobility", peers=2, walkers=5)
    with pytest.raises(ValueError):
        _run("mobility", walkers=0)
    with pytest.raises(ValueError):
        _run("mobility", steps=0)


def test_e10_baselines_comparison():
    result = _run("baselines", peers=30, events=12)
    systems = {row["system"] for row in result.rows}
    assert systems == {"dr_tree", "containment_tree", "per_dimension",
                       "flooding", "centralized"}
    by_system = {row["system"]: row for row in result.rows}
    assert all(row["false_negatives"] == 0 for row in result.rows)
    assert (by_system["dr_tree"]["fp_rate_pct"]
            <= by_system["flooding"]["fp_rate_pct"])


# --------------------------------------------------------------------------- #
# BM — the backend matrix (every broker, one workload)
# --------------------------------------------------------------------------- #


def test_backend_matrix_covers_every_registered_backend():
    from repro.api import backend_names

    result = _run("backend_matrix", peers=24, events=10, seed=2)
    assert [row["backend"] for row in result.rows] == backend_names()
    assert all(row["false_negatives"] == 0 for row in result.rows)
    assert all(row["subscribers"] == 24 for row in result.rows)


def test_backend_matrix_drtree_engines_agree():
    result = _run("backend_matrix", peers=24, events=10, seed=2)
    by_backend = {row["backend"]: dict(row) for row in result.rows}
    classic = by_backend.pop("drtree:classic")
    batched = by_backend.pop("drtree:batched")
    sharded = by_backend.pop("drtree:sharded")
    net = by_backend.pop("drtree:net")
    for row in (classic, batched, sharded, net):
        row.pop("backend")
    assert classic == batched
    assert classic == sharded
    # drtree:net delivers the same events over real sockets, but its
    # message counter may include background-stabilizer traffic — compare
    # every column except the message cost (see docs/net.md).
    net.pop("msgs_per_event")
    assert net == {key: value for key, value in classic.items()
                   if key != "msgs_per_event"}
    # Flooding reaches everyone: its false-positive rate tops the matrix.
    assert by_backend["flooding"]["fp_rate_pct"] == 100.0
