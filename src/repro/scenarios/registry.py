"""Process-wide scenario registry.

The registry maps scenario names to frozen :class:`~repro.scenarios.base.Scenario`
instances.  Every component that accepts a scenario accepts either a name (the
common case — names travel through configs, CLIs and cache keys) or a
:class:`Scenario` instance, normalized through :func:`get_scenario`.
"""
from __future__ import annotations

from typing import Dict

from repro.scenarios.base import Scenario

_REGISTRY: Dict[str, Scenario] = {}


def register(scenario: Scenario, overwrite: bool = False) -> Scenario:
    """Register ``scenario`` under its name and return it.

    Re-registering a physically identical scenario is a no-op; registering a
    *different* scenario under an existing name raises unless ``overwrite``.
    """
    existing = _REGISTRY.get(scenario.name)
    if existing is not None and existing != scenario and not overwrite:
        raise ValueError(
            f"scenario {scenario.name!r} is already registered with different "
            "parameters; pass overwrite=True to replace it"
        )
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(scenario: "Scenario | str") -> Scenario:
    """Normalize a name or instance into a :class:`Scenario`.

    Raises:
        KeyError: for an unknown name, listing the registered catalog.
    """
    if isinstance(scenario, Scenario):
        return scenario
    if not isinstance(scenario, str):
        raise TypeError(
            f"expected a Scenario or scenario name, got {type(scenario)!r}"
        )
    try:
        return _REGISTRY[scenario]
    except KeyError:
        raise KeyError(
            f"unknown scenario {scenario!r}; registered scenarios: "
            f"{', '.join(scenario_names()) or '(none)'}"
        ) from None


def scenario_names() -> tuple:
    """Sorted names of all registered scenarios."""
    return tuple(sorted(_REGISTRY))


def all_scenarios() -> Dict[str, Scenario]:
    """Snapshot of the registry (name -> scenario)."""
    return dict(_REGISTRY)
