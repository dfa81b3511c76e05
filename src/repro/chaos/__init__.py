"""Deterministic chaos: declarative fault scenarios with a trace oracle.

Compose unplanned crashes, network partitions, ZooKeeper session churn
and planned maintenance into named, seeded scenarios; every injected
fault is journaled and the run is judged by replaying the journal
through the :class:`~repro.obs.checker.TraceChecker` invariants.
"""

from .library import SCENARIOS, all_scenarios, get
from .scenario import (ACTIONS, ARMS, Expectations, FaultAction,
                       ScenarioResult, ScenarioRun, ScenarioSpec,
                       run_scenario)
from .spec_io import SpecValidationError, load_spec, validate_spec

__all__ = [
    "ACTIONS",
    "ARMS",
    "Expectations",
    "FaultAction",
    "SCENARIOS",
    "ScenarioResult",
    "ScenarioRun",
    "ScenarioSpec",
    "SpecValidationError",
    "all_scenarios",
    "get",
    "load_spec",
    "run_scenario",
    "validate_spec",
]
