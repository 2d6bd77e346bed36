"""The paper-claims ledger: what this repository reproduces, in one table.

Each row names one claim, where the paper makes it, the registered scenario
that measures it (with the overrides it runs under, none for a default run),
the exact simulated statistics the row pins, and a status:

* ``reproduced`` — the pinned run shows the claim;
* ``reproduced with a stated deviation`` — it shows the claim's shape, and
  the row says where the numbers part from it;
* ``not checkable here`` — the run cannot decide the claim; the row still
  pins what the run does compute, and says what is missing.

A behaviour change that moves a pinned statistic fails its row, whatever the
status.  Every scenario runs once per module, through the registry — the
same bind-and-coerce path as ``python -m repro run``.  ``docs/scenarios.md``
renders the same table (``tests/test_docs.py`` checks every row is there).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

import pytest

from repro.experiments.harness import ExperimentResult
from repro.runtime.registry import load_scenarios
from repro.sim.sharded import shm_available

REPRODUCED = "reproduced"
DEVIATION = "reproduced with a stated deviation"
NOT_CHECKABLE = "not checkable here"


@dataclass(frozen=True)
class Claim:
    """One ledger row."""

    #: Short stable id of the row (its pytest id).
    key: str
    claim: str
    anchor: str
    scenario: str
    #: Overrides of the scenario's declared defaults, as ``(name, value)``.
    overrides: Tuple[Tuple[str, Any], ...]
    #: Reads the pinned statistics off the scenario's result.
    measure: Callable[[ExperimentResult], Dict[str, Any]]
    pinned: Dict[str, Any]
    status: str
    #: Where the numbers part from the claim, or why it cannot be checked.
    remark: str = ""
    marks: Tuple[Any, ...] = field(default=(), compare=False)

    @property
    def doc_row(self) -> str:
        """This row as it appears in ``docs/scenarios.md``."""
        run = f"`{self.scenario}`" + "".join(
            f" `--{name.replace('_', '-')} {value}`"
            for name, value in self.overrides)
        pinned = ", ".join(f"{name} = {value}"
                           for name, value in self.pinned.items())
        status = f"{self.status}: {self.remark}" if self.remark else self.status
        return f"| {self.claim} | {self.anchor} | {run} | {pinned} | {status} |"


def _note(result: ExperimentResult, prefix: str) -> str:
    """The value of the ``prefix = value`` note."""
    (value,) = [note.split(" = ", 1)[1] for note in result.notes
                if note.startswith(f"{prefix} = ")]
    return value


def _count(result: ExperimentResult, predicate) -> int:
    return sum(1 for row in result.rows if predicate(row))


def _by(result: ExperimentResult, key: str) -> Dict[Any, Dict[str, Any]]:
    return {row[key]: row for row in result.rows}


def _running_example(result):
    event_a = _by(result, "event")["a"]
    return {"event a delivered": event_a["delivered"],
            "its messages": event_a["messages"],
            "its false positives": event_a["false_positives"]}


def _engine_parity(result):
    (reference, candidate) = result.rows
    return {"messages": candidate["messages"],
            "deliveries": candidate["deliveries"],
            "equal to the baseline": (
                (candidate["messages"], candidate["deliveries"])
                == (reference["messages"], reference["deliveries"]))}


def _split_extremes(result):
    def least(column):
        return min(result.rows, key=lambda row: row[column])["method"]

    return {"least sibling overlap": least("sibling_overlap"),
            "lowest fp %": least("fp_rate_pct"),
            "least coverage": least("coverage")}


#: The two sharded transports on both sides of one ``throughput`` run.
_SHM_VS_PIPE = (("peers", 600), ("events", 60), ("backend", "drtree:sharded"),
                ("baseline", "drtree:sharded"), ("transport", "shm"),
                ("baseline_transport", "pipe"))
_NEEDS_SHM = (pytest.mark.skipif(not shm_available(),
                                 reason="no shared memory here"),)


CLAIMS: Tuple[Claim, ...] = (
    Claim(
        "E1-legal",
        "The running example's overlay is a legal DR-tree",
        "Definition 3.1, Figures 1–5", "paper_example", (),
        lambda r: {"legal": _note(r, "legal configuration"),
                   "height": _note(r, "overlay height")},
        {"legal": "True", "height": "3"}, REPRODUCED),
    Claim(
        "E1-no-false-negatives",
        "Dissemination of events a–d has no false negatives",
        "Figures 1–5", "paper_example", (),
        lambda r: {"events": len(r.rows),
                   "false negatives": sum(r.column("false_negatives"))},
        {"events": 4, "false negatives": 0}, REPRODUCED),
    Claim(
        "E1-event-a",
        "Event a reaches its whole containment family with a handful of "
        "messages",
        "Figures 1–5", "paper_example", (), _running_example,
        {"event a delivered": 4, "its messages": 4,
         "its false positives": 1},
        DEVIATION, "the root S5 receives it too, one false positive"),
    Claim(
        "E1-bulk-2000",
        "An STR bulk-built overlay is legal and loses no event",
        "Definition 3.1", "paper_example", (("peers", 2000),),
        lambda r: {"legal": _note(r, "legal configuration"),
                   "height": _note(r, "overlay height"),
                   "false negatives": sum(r.column("false_negatives"))},
        {"legal": "True", "height": "7", "false negatives": 0}, REPRODUCED),
    Claim(
        "E2-height-bound",
        "Tree height stays within log_m N + 2",
        "Lemma 3.1", "height", (),
        lambda r: {"cells": len(r.rows),
                   "cells within the bound column": _count(
                       r, lambda row: row["height"] <= row["bound"]),
                   "legal cells": _count(r, lambda row: row["legal"]),
                   "max height": max(r.column("height"))},
        {"cells": 15, "cells within the bound column": 15, "legal cells": 15,
         "max height": 6}, REPRODUCED),
    Claim(
        "E3-memory-bound",
        "Per-peer routing state stays within O(M log² N / log m)",
        "Lemma 3.1", "memory", (),
        lambda r: {"sizes within bound": _count(
                       r, lambda row: row["within_bound"]),
                   "max entries": max(r.column("max_entries"))},
        {"sizes within bound": 5, "max entries": 27}, REPRODUCED),
    Claim(
        "E4-join-cost",
        "A join costs O(log_m N) hops and leaves the tree legal",
        "Lemma 3.2", "join_cost", (),
        lambda r: {"sizes legal": _count(r, lambda row: row["legal"]),
                   "sizes with mean hops ≤ bound": _count(
                       r, lambda row: row["mean_hops"] <= row["bound"]),
                   "max mean hops": max(r.column("mean_hops")),
                   "max rounds_to_legal": max(r.column("rounds_to_legal"))},
        {"sizes legal": 5, "sizes with mean hops ≤ bound": 5,
         "max mean hops": 2.18, "max rounds_to_legal": 1.0}, REPRODUCED),
    Claim(
        "E5-latency",
        "A publication reaches its audience in a logarithmic number of hops",
        "Sections 2.3 and 3", "latency", (),
        lambda r: {"false negatives": sum(r.column("false_negatives")),
                   "sizes with mean hops ≤ bound": _count(
                       r, lambda row: row["mean_hops"] <= row["bound"]),
                   "max hops": max(r.column("max_hops"))},
        {"false negatives": 0, "sizes with mean hops ≤ bound": 5,
         "max hops": 7.0}, REPRODUCED),
    Claim(
        "E6-zero-false-negatives",
        "Zero false negatives",
        "accuracy claim", "false_positives", (),
        lambda r: {"cells": len(r.rows),
                   "false negatives": sum(r.column("false_negatives"))},
        {"cells": 15, "false negatives": 0}, REPRODUCED),
    Claim(
        "E6-fp-2-3-percent",
        "False positives in the order of 2–3 % with most workloads",
        "accuracy claim", "false_positives", (),
        lambda r: {"min fp %": min(r.column("fp_rate_pct")),
                   "max fp %": max(r.column("fp_rate_pct")),
                   "cells above 3 %": _count(
                       r, lambda row: row["fp_rate_pct"] > 3.0)},
        {"min fp %": 0.16, "max fp %": 4.55, "cells above 3 %": 8},
        DEVIATION, "8 of the 15 workload × event cells are above 3 %"),
    Claim(
        "E7-split-no-false-negatives",
        "Every split policy disseminates without false negatives",
        "Section 3.2", "split_methods", (),
        lambda r: {"methods": len(r.rows),
                   "false negatives": sum(r.column("false_negatives"))},
        {"methods": 3, "false negatives": 0}, REPRODUCED),
    Claim(
        "E7-rstar-tightest",
        "R* splits give the tightest tree",
        "Section 3.2", "split_methods", (), _split_extremes,
        {"least sibling overlap": "rstar", "lowest fp %": "rstar",
         "least coverage": "quadratic"},
        DEVIATION, "R* has the least overlap and fewest false positives but "
                   "the largest internal MBR area"),
    Claim(
        "E8-recovers",
        "The overlay returns to a legal configuration after departures, "
        "crashes and memory corruption",
        "Lemmas 3.3–3.6", "recovery", (),
        lambda r: {"fault classes": len(set(r.column("fault"))),
                   "rows": len(r.rows),
                   "rows recovered": _count(r, lambda row: row["recovered"])},
        {"fault classes": 4, "rows": 12, "rows recovered": 12},
        REPRODUCED),
    Claim(
        "E8-step-bound",
        "Recovery takes O(N log_m N) steps",
        "Lemmas 3.3–3.6", "recovery", (),
        lambda r: {"max rounds_to_legal": max(r.column("rounds_to_legal"))},
        {"max rounds_to_legal": 8.0},
        NOT_CHECKABLE, "the scenario counts synchronized rounds of Θ(N) "
                       "steps each, for its own fault mix rather than a "
                       "worst case per fault class"),
    Claim(
        "E9-churn-shape",
        "Expected time to disconnection falls sharply with the departure "
        "rate",
        "Lemma 3.7", "churn", (),
        lambda r: {"simulated mean by rate": r.column("simulated_mean"),
                   "analytic at rate 0.5": (
                       f"{r.rows[0]['analytic_expectation']:.3g}")},
        {"simulated mean by rate": [2.18, 1.09, 0.55, 0.27],
         "analytic at rate 0.5": "9.96e+25"},
        DEVIATION, "shape only; the analytic expectation at rate 0.5 is "
                   "loose by 25 orders of magnitude"),
    Claim(
        "E10-baselines",
        "The DR-tree loses no event and reaches far fewer uninterested "
        "subscribers than flooding",
        "Section 4", "baselines", (),
        lambda r: {"systems": len(r.rows),
                   "false negatives": sum(r.column("false_negatives")),
                   "DR-tree fp %": _by(r, "system")["dr_tree"]["fp_rate_pct"],
                   "flooding fp %": _by(r, "system")["flooding"]["fp_rate_pct"]},
        {"systems": 5, "false negatives": 0, "DR-tree fp %": 3.52,
         "flooding fp %": 100.0}, REPRODUCED),
    Claim(
        "T1-shm-parity",
        "The shm shard transport delivers exactly what the pipe one does",
        "engine contract, not a paper claim", "throughput",
        _SHM_VS_PIPE,
        _engine_parity,
        {"messages": 585, "deliveries": 838, "equal to the baseline": True},
        REPRODUCED,
        marks=_NEEDS_SHM),
    Claim(
        "T1-shm-2x",
        "The shm shard transport is at least 2× faster than the pipe one",
        "engine contract, not a paper claim", "throughput",
        _SHM_VS_PIPE,
        lambda r: {"modes": r.column("mode")},
        {"modes": ["drtree:sharded@pipe", "drtree:sharded@shm"]},
        NOT_CHECKABLE, "a wall-clock ratio, asserted at 50 000 peers by CI's "
                       "benchmark job",
        marks=_NEEDS_SHM),
)


@functools.lru_cache(maxsize=None)
def _result(scenario: str,
            overrides: Tuple[Tuple[str, Any], ...]) -> ExperimentResult:
    return load_scenarios().get(scenario).run(**dict(overrides))


@pytest.mark.parametrize(
    "claim", [pytest.param(claim, id=claim.key, marks=claim.marks)
              for claim in CLAIMS])
def test_claim(claim: Claim):
    result = _result(claim.scenario, claim.overrides)
    assert claim.measure(result) == claim.pinned


def test_ledger_rows_are_well_formed():
    assert len({claim.key for claim in CLAIMS}) == len(CLAIMS)
    assert len({claim.claim for claim in CLAIMS}) == len(CLAIMS)
    registry = load_scenarios()
    for claim in CLAIMS:
        assert claim.status in (REPRODUCED, DEVIATION, NOT_CHECKABLE)
        assert bool(claim.remark) == (claim.status != REPRODUCED), claim.claim
        registry.get(claim.scenario).bind(**dict(claim.overrides))
