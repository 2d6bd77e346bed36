"""The scenario registry.

A *scenario* is a named, deterministic, parameterized unit of work — an
experiment over the DR-tree overlay, a workload sweep, a baseline comparison.
Each scenario declares its parameters with types and defaults once, in its
``Param`` tuple, so that every consumer (the CLI, the parallel runner, the
tests, Python callers) validates and coerces overrides the same way.  The
registered function is the scenario's only body: it takes exactly the
declared parameters and carries no defaults of its own.

Scenarios register themselves at import time through
:func:`register_scenario`; :func:`load_scenarios` imports the experiment
modules so the default registry is populated on demand.

Example — register, then run with validated overrides::

    @register_scenario("demo", "A demo sweep", params=(
        Param("peers", int, 64, "network size"),
    ))
    def demo(peers):
        return some_experiment(peers)

    REGISTRY.get("demo").run(peers="128")   # "128" is coerced to int

The registry is the single source of truth for scenario metadata: the CLI
builds its ``--flags`` from :attr:`Scenario.params`, the runner re-binds
overrides in worker processes, and the documentation under ``docs/cli.md``
and ``docs/scenarios.md`` mirrors ``python -m repro list -v`` (a docs test
keeps them in sync).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class ScenarioError(Exception):
    """Base class for scenario registry errors."""


class DuplicateScenarioError(ScenarioError):
    """A scenario name was registered twice."""


class UnknownScenarioError(ScenarioError):
    """A scenario name is not in the registry."""


class UnknownParameterError(ScenarioError):
    """An override names a parameter the scenario does not declare."""


@dataclass(frozen=True)
class Param:
    """One typed scenario parameter.

    ``type`` is the coercion callable (``int``, ``float``, ``str``); CLI
    strings and JSON values are passed through it before reaching the
    scenario runner.  ``choices`` optionally restricts the value set (used
    for e.g. split methods).
    """

    name: str
    type: Callable[[Any], Any]
    default: Any
    help: str = ""
    choices: Optional[Tuple[Any, ...]] = None

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to this parameter's type, validating choices."""
        try:
            coerced = self.type(value)
        except (TypeError, ValueError) as exc:
            # Carry the coercion's own diagnostic: custom coercers (backend
            # family/exclusion checks) explain *why* a value is rejected.
            detail = f": {exc}" if str(exc) else ""
            raise ScenarioError(
                f"parameter {self.name!r} expects {self.type.__name__}, "
                f"got {value!r}{detail}"
            ) from exc
        if self.choices is not None and coerced not in self.choices:
            raise ScenarioError(
                f"parameter {self.name!r} must be one of {list(self.choices)}, "
                f"got {coerced!r}"
            )
        return coerced


@dataclass(frozen=True)
class Scenario:
    """A registered scenario: metadata, typed parameters and a runner."""

    name: str
    title: str
    runner: Callable[..., Any]
    description: str = ""
    params: Tuple[Param, ...] = ()
    #: The paper's experiment id (``E1``..``E10``) when the scenario
    #: regenerates one of its artefacts; also usable as a CLI alias.
    experiment_id: Optional[str] = None
    #: True when every workload mutation of the scenario goes through the
    #: :class:`~repro.pubsub.api.PubSubSystem` facade, so a run can be
    #: captured with ``repro run <name> --record file.jsonl`` and replayed
    #: bit-identically with ``repro run --trace file.jsonl`` (see
    #: ``docs/traces.md``).
    replayable: bool = False

    def param(self, name: str) -> Param:
        """Look up one declared parameter."""
        for param in self.params:
            if param.name == name:
                return param
        raise UnknownParameterError(
            f"scenario {self.name!r} has no parameter {name!r}; "
            f"declared: {[p.name for p in self.params]}"
        )

    @property
    def backend_aware(self) -> bool:
        """True when the scenario declares a ``backend`` parameter.

        Backend-aware scenarios run their workload through a
        :class:`~repro.api.spec.SystemSpec`-built broker and accept the
        CLI's ``repro run <scenario> --backend <name>`` override.
        """
        return any(param.name == "backend" for param in self.params)

    def defaults(self) -> Dict[str, Any]:
        """The default value of every declared parameter."""
        return {param.name: param.default for param in self.params}

    def bind(self, **overrides: Any) -> Dict[str, Any]:
        """Merge ``overrides`` over the defaults, validating and coercing."""
        values = self.defaults()
        for name, value in overrides.items():
            values[name] = self.param(name).coerce(value)
        return values

    def run(self, **overrides: Any) -> Any:
        """Run the scenario with validated parameter overrides."""
        return self.runner(**self.bind(**overrides))


class ScenarioRegistry:
    """Name → scenario mapping with duplicate and unknown-name protection."""

    def __init__(self) -> None:
        self._scenarios: Dict[str, Scenario] = {}

    def register(self, scenario: Scenario) -> Scenario:
        """Add a scenario; duplicate names (or experiment ids) are errors."""
        if scenario.name in self._scenarios:
            raise DuplicateScenarioError(
                f"scenario {scenario.name!r} is already registered"
            )
        for existing in self._scenarios.values():
            if (scenario.experiment_id is not None
                    and existing.experiment_id == scenario.experiment_id):
                raise DuplicateScenarioError(
                    f"experiment id {scenario.experiment_id!r} is already "
                    f"registered by scenario {existing.name!r}"
                )
        self._scenarios[scenario.name] = scenario
        return scenario

    def get(self, name: str) -> Scenario:
        """Look up a scenario by name or experiment id (``E1``..``E10``)."""
        if name in self._scenarios:
            return self._scenarios[name]
        for scenario in self._scenarios.values():
            if scenario.experiment_id == name:
                return scenario
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; available: {self.names()}"
        )

    def names(self) -> List[str]:
        """Sorted scenario names."""
        return sorted(self._scenarios)

    def scenarios(self) -> List[Scenario]:
        """All scenarios, sorted by name."""
        return [self._scenarios[name] for name in self.names()]

    def __contains__(self, name: str) -> bool:
        try:
            self.get(name)
        except UnknownScenarioError:
            return False
        return True

    def __len__(self) -> int:
        return len(self._scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios())


def backend_param(default: str = "drtree:classic",
                  family: Optional[str] = None,
                  exclude: Optional[Dict[str, str]] = None,
                  help: str = "") -> Param:  # noqa: A002 - mirrors Param.help
    """The standard ``backend`` parameter of backend-aware scenarios.

    Values validate at *bind time* against the live backend registry
    (:func:`repro.api.normalize_backend`), not against a choices tuple
    frozen at scenario-registration time — so a backend or engine
    registered later is immediately accepted.  Scenarios whose workload
    needs one broker family's internals (e.g. targeted crash selection
    walking the DR-tree) pass ``family="drtree"``; ``exclude`` rejects
    individual backends the scenario cannot drive, mapping each name to
    the reason shown in the error.  Declaring this parameter is what makes
    a scenario :attr:`~Scenario.backend_aware`.
    """

    def coerce_backend(value: Any) -> str:
        from repro.api.registry import backend_family, normalize_backend

        name = normalize_backend(value)
        if family is not None and backend_family(name) != family:
            raise ValueError(
                f"backend {value!r} is outside the {family!r} family this "
                "scenario requires")
        if exclude and name in exclude:
            raise ValueError(
                f"backend {name!r} is not supported by this scenario: "
                f"{exclude[name]}")
        return name

    coerce_backend.__name__ = (f"{family}_backend" if family
                               else "backend_name")
    return Param(
        "backend",
        coerce_backend,
        default,
        help or "broker backend the workload runs on "
                "(any name from repro.api.backend_names())",
    )


#: The process-wide default registry the CLI and runner consult.
REGISTRY = ScenarioRegistry()


def register_scenario(
    name: str,
    title: str,
    *,
    description: str = "",
    params: Tuple[Param, ...] = (),
    experiment_id: Optional[str] = None,
    replayable: bool = False,
    registry: Optional[ScenarioRegistry] = None,
) -> Callable[[Callable[..., Any]], Scenario]:
    """Decorator factory registering ``runner`` as a scenario.

    Usage::

        @register_scenario("height", "Tree height vs N", params=(
            Param("peers", int, 256, "largest network size"),
            Param("seed", int, 0, "RNG seed"),
        ), experiment_id="E2")
        def height(peers, seed):
            ...

    The decorated name is bound to the returned :class:`Scenario`; call it
    through :meth:`Scenario.run`, which fills in the declared defaults.
    """

    def decorator(runner: Callable[..., Any]) -> Scenario:
        scenario = Scenario(
            name=name,
            title=title,
            runner=runner,
            description=description,
            params=tuple(params),
            experiment_id=experiment_id,
            replayable=replayable,
        )
        return (registry if registry is not None else REGISTRY).register(scenario)

    return decorator


def load_scenarios() -> ScenarioRegistry:
    """Populate :data:`REGISTRY` by importing every scenario-bearing module."""
    import repro.experiments  # noqa: F401  (registers on import)

    return REGISTRY
