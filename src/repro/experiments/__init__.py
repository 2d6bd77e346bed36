"""Experiment harness regenerating every figure, lemma and quantitative claim.

Each experiment module registers one scenario in the runtime registry
(:mod:`repro.runtime`) when this package is imported: a single function
whose parameters and defaults are declared once, in its ``Param`` tuple,
returning an :class:`~repro.experiments.harness.ExperimentResult` whose
rows print as the table the paper would show.  The mapping from scenario
to paper artefact is the scenario table in ``docs/scenarios.md``, and the
claims ledger ``tests/test_paper_claims.py`` checks each claim against a
default run.

Run scenarios from the command line::

    python -m repro list
    python -m repro run height --peers 512
    python -m repro run-all --jobs 4

or from Python through the registry, which binds and coerces overrides the
same way::

    from repro.runtime import load_scenarios
    result = load_scenarios().get("height").run(peers=512)
"""

import importlib

from repro.experiments.harness import ExperimentResult, format_table, size_ladder

#: The scenario-bearing experiment modules, imported below so that every
#: scenario registers in repro.runtime's registry when this package loads
#: (see repro.runtime.registry.load_scenarios).
EXPERIMENT_MODULES = (
    "exp_paper_example",
    "exp_height",
    "exp_memory",
    "exp_join_cost",
    "exp_latency",
    "exp_false_positives",
    "exp_split_methods",
    "exp_recovery",
    "exp_churn",
    "exp_baselines",
    "exp_backend_matrix",
    "exp_throughput",
    "exp_scale",
    "exp_hotspot",
    "exp_adversarial_churn",
    "exp_mobility",
    "exp_crash_recovery",
    "exp_net_lossy",
    "exp_net_soak",
)

for _module in EXPERIMENT_MODULES:
    importlib.import_module(f"repro.experiments.{_module}")

__all__ = ["EXPERIMENT_MODULES", "ExperimentResult", "format_table",
           "size_ladder"]
