"""Tests for the scenario registry: typed params, lookup, duplicate names."""

from __future__ import annotations

import pytest

from repro.experiments.harness import ExperimentResult, size_ladder
from repro.runtime.registry import (
    REGISTRY,
    DuplicateScenarioError,
    Param,
    Scenario,
    ScenarioError,
    ScenarioRegistry,
    UnknownParameterError,
    UnknownScenarioError,
    load_scenarios,
    register_scenario,
)


def _dummy(peers: int = 4, seed: int = 0) -> ExperimentResult:
    result = ExperimentResult("T", "dummy")
    result.add_row(peers=peers, seed=seed)
    return result


def _make(registry: ScenarioRegistry, name: str = "dummy",
          experiment_id: str | None = None) -> Scenario:
    return register_scenario(
        name, "A dummy scenario",
        params=(Param("peers", int, 4, "population"),
                Param("seed", int, 0, "RNG seed")),
        experiment_id=experiment_id,
        registry=registry,
    )(_dummy)


# --------------------------------------------------------------------------- #
# Registration and lookup
# --------------------------------------------------------------------------- #


def test_register_and_get():
    registry = ScenarioRegistry()
    scenario = _make(registry)
    assert registry.get("dummy") is scenario
    assert registry.names() == ["dummy"]
    assert "dummy" in registry
    assert len(registry) == 1


def test_duplicate_name_rejected():
    registry = ScenarioRegistry()
    _make(registry)
    with pytest.raises(DuplicateScenarioError):
        _make(registry)


def test_duplicate_experiment_id_rejected():
    registry = ScenarioRegistry()
    _make(registry, "first", experiment_id="E99")
    with pytest.raises(DuplicateScenarioError):
        _make(registry, "second", experiment_id="E99")


def test_unknown_scenario_lists_available():
    registry = ScenarioRegistry()
    _make(registry)
    with pytest.raises(UnknownScenarioError, match="dummy"):
        registry.get("nope")


def test_lookup_by_experiment_id():
    registry = ScenarioRegistry()
    scenario = _make(registry, experiment_id="E42")
    assert registry.get("E42") is scenario
    assert "E42" in registry


# --------------------------------------------------------------------------- #
# Typed parameters
# --------------------------------------------------------------------------- #


def test_bind_fills_defaults_and_coerces():
    registry = ScenarioRegistry()
    scenario = _make(registry)
    assert scenario.bind() == {"peers": 4, "seed": 0}
    assert scenario.bind(peers="12") == {"peers": 12, "seed": 0}


def test_bind_rejects_unknown_parameter():
    registry = ScenarioRegistry()
    scenario = _make(registry)
    with pytest.raises(UnknownParameterError, match="bogus"):
        scenario.bind(bogus=1)


def test_bind_rejects_uncoercible_value():
    registry = ScenarioRegistry()
    scenario = _make(registry)
    with pytest.raises(ScenarioError, match="peers"):
        scenario.bind(peers="not-a-number")


def test_param_choices_enforced():
    param = Param("method", str, "linear", choices=("linear", "quadratic"))
    assert param.coerce("quadratic") == "quadratic"
    with pytest.raises(ScenarioError, match="method"):
        param.coerce("bogus")


def test_scenario_run_applies_overrides():
    registry = ScenarioRegistry()
    scenario = _make(registry)
    result = scenario.run(peers=7)
    assert result.rows == [{"peers": 7, "seed": 0}]


# --------------------------------------------------------------------------- #
# The real registry
# --------------------------------------------------------------------------- #


def test_all_ten_experiments_registered():
    registry = load_scenarios()
    ids = {scenario.experiment_id for scenario in registry.scenarios()}
    assert {f"E{i}" for i in range(1, 11)} <= ids
    assert {"paper_example", "height", "memory", "join_cost", "latency",
            "false_positives", "split_methods", "recovery", "churn",
            "baselines"} <= set(registry.names())


def test_registered_scenarios_declare_typed_seeds():
    load_scenarios()
    for scenario in REGISTRY.scenarios():
        names = [param.name for param in scenario.params]
        assert "seed" in names, scenario.name
        assert "peers" in names, scenario.name


def test_scenario_functions_take_exactly_their_params_without_defaults():
    """One signature per scenario: the registered function's parameters are
    its declared ``Param``s, and their defaults live only there."""
    import inspect

    load_scenarios()
    for scenario in REGISTRY.scenarios():
        signature = inspect.signature(scenario.runner).parameters
        assert set(signature) == {p.name for p in scenario.params}, \
            scenario.name
        assert all(parameter.default is inspect.Parameter.empty
                   for parameter in signature.values()), scenario.name


def test_backend_param_coerces_and_normalizes():
    from repro.runtime.registry import backend_param

    param = backend_param()
    assert param.name == "backend"
    assert param.default == "drtree:classic"
    # Coercion runs repro.api.normalize_backend: aliases canonicalize...
    assert param.coerce("drtree") == "drtree:classic"
    assert param.coerce("per_dimension") == "per-dimension"
    assert param.coerce("flooding") == "flooding"
    # ... and unknown names fail with the registry's typed error.
    with pytest.raises(ScenarioError):
        param.coerce("gossip")


def test_backend_param_validates_against_the_live_registry(monkeypatch):
    """Regression: choices used to be frozen at scenario-registration time,
    so a backend registered later was rejected by --backend."""
    from repro.api import registry as api_registry
    from repro.runtime.registry import backend_param

    param = backend_param()
    with pytest.raises(ScenarioError):
        param.coerce("gossipx")
    monkeypatch.setitem(api_registry._BACKENDS, "gossipx",
                        api_registry.BackendSpec("gossipx", lambda spec: None))
    assert param.coerce("gossipx") == "gossipx"


def test_backend_param_family_restriction():
    from repro.runtime.registry import backend_param

    param = backend_param(family="drtree")
    assert param.coerce("drtree:batched") == "drtree:batched"
    with pytest.raises(ScenarioError):
        param.coerce("flooding")


def test_backend_aware_scenarios_declare_the_backend_param():
    load_scenarios()
    aware = {scenario.name for scenario in REGISTRY.scenarios()
             if scenario.backend_aware}
    assert {"hotspot", "latency", "mobility", "adversarial-churn"} <= aware
    assert "height" not in aware
    # backend_matrix sweeps every backend itself; no parameter needed.
    assert "backend_matrix" in REGISTRY
    assert not REGISTRY.get("backend_matrix").backend_aware


def test_size_ladder_matches_historical_defaults():
    assert size_ladder(256) == (16, 32, 64, 128, 256)
    assert size_ladder(128, steps=3, floor=32) == (32, 64, 128)
    assert size_ladder(8) == (16,)
    assert size_ladder(5000)[-1] == 5000
    with pytest.raises(ValueError):
        size_ladder(0)
