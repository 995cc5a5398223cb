"""The public experiment API: builder, registry, sessions, results, CLI.

This package is the intended entry point for everything user-facing:

* :class:`Scenario` / :class:`ScenarioBuilder` — typed, fluent scenario
  construction with validated per-layer overrides;
* :func:`register_scenario` / :func:`get_scenario` / :func:`scenario_names` —
  the named-scenario registry, pre-populated (via :mod:`repro.api.catalog`)
  with the paper's Table 1 grid, the figure scenario sets, and
  stress/byzantine/burst workloads;
* :class:`Session` — the one way a scenario runs, with incremental control
  over its deployment;
* :class:`RunResult` — the one result of a run: serialisable, with exact
  JSON round-tripping;
* :func:`run` — the one-call form of :class:`Session`.
"""

from __future__ import annotations

from ..config import ExperimentConfig, RegionSpec, TopologyConfig
from ..faults import (
    Churn,
    Crash,
    DelaySpike,
    Duplicate,
    FaultScheduleConfig,
    Heal,
    MessageLoss,
    Partition,
    Recover,
    Targets,
)
from .builder import Scenario, ScenarioBuilder
from .registry import (
    ScenarioEntry,
    get_entry,
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_names,
    scenario_tags,
    unregister_scenario,
)
from .results import RunResult
from .session import Session

# The built-in catalog (repro.api.catalog) is loaded lazily by the registry
# on first access — see registry._ensure_catalog().


def run(scenario: "ScenarioBuilder | ExperimentConfig | str",
        scale: float = 1.0, *, seed: int | None = None,
        to_completion: bool = False) -> RunResult:
    """Run a scenario (builder, config, or registered name) to a :class:`RunResult`.

    The one-call form of :class:`Session`: start, run to the horizon (or to
    completion), package.
    """
    session = Session(scenario, scale=scale, seed=seed).start()
    if to_completion:
        session.run_to_completion()
    else:
        session.run()
    return session.result()


__all__ = [
    "Scenario",
    "ScenarioBuilder",
    "ScenarioEntry",
    "Session",
    "RunResult",
    "RegionSpec",
    "TopologyConfig",
    "FaultScheduleConfig",
    "Targets",
    "Partition",
    "Heal",
    "Crash",
    "Recover",
    "MessageLoss",
    "Duplicate",
    "DelaySpike",
    "Churn",
    "run",
    "register_scenario",
    "unregister_scenario",
    "get_entry",
    "get_scenario",
    "iter_scenarios",
    "scenario_names",
    "scenario_tags",
]
