"""Parallel experiment runner: fan independent arms/seeds over processes.

The figure experiments are embarrassingly parallel — every arm of
Figure 17 and every figure's ``run()`` builds its own engine, topology
and RNG substreams from an explicit seed, so arms share no state.  The
runner dispatches them over a ``multiprocessing`` pool and collects each
task's headline into a report that depends only on the task list — the
same seeds give the same bytes on any host and pool size.  How fast the
simulator runs is ``bench/``'s question, not this module's.

Task functions must be *top-level* (picklable); each returns headline
numbers as a plain dict so the report stays JSON-serializable.  What a
figure's headline is belongs to the figure's module (``headline()``), and
so do its sizes (the defaults of ``run()``).
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
from typing import Any, Dict, List, Optional

from .fig17_availability import ARMS as FIG17_ARMS

# -- headline task functions (top-level: the pool pickles references) --------


def figure_task(module: str, entry: str = "run",
                **kwargs: Any) -> Dict[str, Any]:
    """Run one figure experiment and reduce it to its headline.

    ``module`` names a ``repro.experiments`` module that owns
    ``headline(result)``; ``entry`` is the function to call with
    ``kwargs`` (``run``, or Figure 17's per-arm ``run_arm``).  Sizes not
    passed are the module's own defaults, i.e. the figure's.
    """
    experiment = importlib.import_module(f"{__package__}.{module}")
    return experiment.headline(getattr(experiment, entry)(**kwargs))


def chaos_task(scenario: str = "", arm: str = "sm", seed: int = 0,
               capacity: int = 1 << 20,
               journal_path: Optional[str] = None,
               spec: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Run one chaos scenario under one arm (see :mod:`repro.chaos`).

    The scenario comes from the library by name, or — when ``spec`` is
    given — from an inline ``ScenarioSpec.to_dict()`` payload (the
    ``run_chaos.py --scenario @file.json`` path).  The headline carries
    the journal digest (the determinism fingerprint) and every oracle
    violation; ``journal_path`` optionally dumps the raw journal for
    post-mortems.
    """
    from repro.chaos import (ScenarioSpec, get, run_scenario,
                             validate_spec)

    if spec is not None:
        scenario_spec = validate_spec(ScenarioSpec.from_dict(spec))
    else:
        scenario_spec = get(scenario)
    if journal_path:
        parent = os.path.dirname(journal_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
    result = run_scenario(scenario_spec, arm=arm, seed=seed,
                          capacity=capacity, journal_path=journal_path)
    headline = result.headline()
    if journal_path:
        headline["journal_path"] = journal_path
    return headline


_FIGURE_TASK = f"{__name__}:figure_task"


def _sweep(name: str, sizes: Dict[str, Dict[str, Any]]
           ) -> List[Dict[str, Any]]:
    """One task per sim-heavy figure, Figure 17 split per arm so its arms
    run concurrently under the pool.  ``sizes`` holds, per figure, only
    the keywords that differ from the figure's own defaults."""
    def task(figure: str, task_name: str, module: str,
             **kwargs: Any) -> Dict[str, Any]:
        return {"figure": figure, "name": task_name, "fn": _FIGURE_TASK,
                "kwargs": {"module": module, **kwargs,
                           **sizes.get(figure, {})}}

    return [task("fig17", arm, "fig17_availability", entry="run_arm",
                 arm=arm) for arm in FIG17_ARMS] + [
        task("fig18", name, "fig18_production_upgrades"),
        task("fig19", name, "fig19_geo_failover"),
        task("fig23", name, "fig23_continuous_lb"),
    ]


#: The default sweep: every figure at its own ``run()`` defaults.
DEFAULT_TASKS: List[Dict[str, Any]] = _sweep("default", {})

#: Scaled-down variant for CI and quick local runs.
SMOKE_TASKS: List[Dict[str, Any]] = _sweep("smoke", {
    "fig17": {"shards": 300, "servers": 20, "restart_duration": 30.0,
              "request_rate": 20.0},
    "fig18": {"shards": 120, "servers": 10, "day_length": 1_200.0,
              "days": 1},
    "fig19": {"shards": 100, "ec_shards": 40, "servers_per_region": 6,
              "request_rate": 10.0},
    "fig23": {"servers": 15, "shards": 60, "days": 1.0},
})


#: Figures that accept the ``traffic=`` kwarg (the hybrid engine switch).
TRAFFIC_AWARE_FIGURES = ("fig17", "fig18")


def with_traffic(tasks: List[Dict[str, Any]],
                 traffic: str) -> List[Dict[str, Any]]:
    """Copy a task list with ``traffic`` injected into the aware figures."""
    out: List[Dict[str, Any]] = []
    for task in tasks:
        if task["figure"] in TRAFFIC_AWARE_FIGURES:
            task = dict(task, kwargs=dict(task["kwargs"], traffic=traffic))
        out.append(task)
    return out


def run_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one task (in a worker process, or inline when serial)."""
    module_name, _, func_name = task["fn"].rpartition(":")
    func = getattr(importlib.import_module(module_name), func_name)
    return {
        "figure": task["figure"],
        "name": task["name"],
        "headline": func(**task["kwargs"]),
    }


def select_task(tasks: List[Dict[str, Any]], spec: str) -> Dict[str, Any]:
    """Resolve ``"fig17"`` or ``"fig17:sm"`` to a single task dict.

    A bare figure with multiple arms picks the first (for fig17: "sm") —
    tracing a single well-defined run is the point, not a sweep.
    """
    figure, _, name = spec.partition(":")
    matches = [t for t in tasks if t["figure"] == figure
               and (not name or t["name"] == name)]
    if not matches:
        known = sorted({f"{t['figure']}:{t['name']}" for t in tasks})
        raise KeyError(f"no task matches {spec!r}; known: {known}")
    return matches[0]


def run_traced(task: Dict[str, Any], trace_path: str,
               journal_path: Optional[str] = None) -> Dict[str, Any]:
    """Run one task inline with observability enabled and export traces.

    Returns the normal :func:`run_task` result with a ``trace`` section:
    export paths, journal stats, the deterministic digest, every
    TraceChecker violation (empty = invariants hold) and the final
    metrics snapshot.
    """
    from repro.obs import Observability, use
    from repro.obs.checker import TraceChecker
    from repro.obs.trace_export import write_chrome_trace, write_jsonl

    obs = Observability()
    with use(obs):
        result = run_task(task)
    journal = obs.journal
    write_chrome_trace(journal, trace_path)
    if journal_path:
        write_jsonl(journal, journal_path)
    violations = TraceChecker(journal).check()
    result["trace"] = {
        "trace_path": trace_path,
        "journal_path": journal_path,
        "records": journal.appended,
        "dropped": journal.dropped,
        "capacity": journal.capacity,
        "tracks": journal.tracks(),
        "digest": journal.digest(),
        "violations": [v.as_dict() for v in violations],
        "metrics": obs.metrics.snapshot(),
    }
    return result


def run_experiments(tasks: Optional[List[Dict[str, Any]]] = None,
                    processes: Optional[int] = None,
                    serial: bool = False) -> Dict[str, Any]:
    """Run the task list and build the aggregated report dict.

    ``processes`` defaults to ``min(len(tasks), cpu_count)``.  With one
    core (or ``serial=True``) tasks run inline — the pool cannot beat
    serial execution without cores to spread over.  The report is
    ``{"figures": {figure: {task name: headline}}}`` and carries nothing
    that depends on the host or the pool size.
    """
    if tasks is None:
        tasks = DEFAULT_TASKS
    if processes is None:
        processes = min(len(tasks), os.cpu_count() or 1)
    if serial or processes <= 1:
        results = [run_task(task) for task in tasks]
    else:
        with multiprocessing.Pool(processes=processes) as pool:
            results = pool.map(run_task, tasks)

    figures: Dict[str, Any] = {}
    for result in results:
        figure = figures.setdefault(result["figure"], {})
        figure[result["name"]] = result["headline"]
    return {"figures": figures}
