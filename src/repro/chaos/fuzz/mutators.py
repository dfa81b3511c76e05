"""Timeline generation, mutation and crossover over the action vocabulary.

Every operator here maps ``(rng, spec[, spec]) -> spec`` and guarantees
its output passes :func:`repro.chaos.spec_io.validate_spec`: action
times are clamped into ``[0, duration]``, region params are drawn from
the spec's own region list, and actions are kept sorted by
``(at, kind)`` so two specs with the same timeline have the same
canonical JSON.

The generation vocabulary is the registered executor set *minus*
``probe``: probes are hand-written assertions (part of a scenario's
oracle), while fuzzed candidates are judged purely by the unconditional
TraceChecker invariants — a generated probe would only manufacture
false "violations".  Generated specs likewise disable the tunable
expectation bounds (``availability_bound``/``failover_bound`` off,
``final_ready_min`` 0) so any violation a candidate triggers is a real
protocol breach, never a miscalibrated bar.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from typing import Callable, Dict, List, Tuple

from ...cluster.taskcontrol import MaintenanceImpact
from ..scenario import (ACTIONS, Expectations, FaultAction, ScenarioSpec,
                        duration_of, param_of)

__all__ = ["FUZZ_KINDS", "MUTATORS", "random_action", "random_spec",
           "seed_specs", "mutate", "crossover", "normalize",
           "revert_span"]

#: Action kinds the generator may emit (executors minus hand-oracle
#: probes). Sorted so vocabulary iteration order never depends on
#: registration order.
FUZZ_KINDS: Tuple[str, ...] = tuple(sorted(k for k in ACTIONS
                                           if k != "probe"))

#: Harness shape for generated candidates: small enough that one run
#: costs tens of milliseconds, rich enough (two regions, replicated
#: shards optional) to reach cross-region protocol paths.
BASE_SHAPE = dict(
    regions=("FRC", "PRN"),
    machines_per_region=5,
    servers_per_region=3,
    shards=8,
    replica_count=1,
    request_rate=2.0,
    settle=40.0,
)

#: Duration bounds for generated/mutated scenarios (seconds of sim time
#: after settle).
MIN_DURATION, MAX_DURATION = 120.0, 300.0

#: Generated specs never assert tunable bounds — the oracle is the
#: unconditional invariant set.
FUZZ_EXPECTATIONS = Expectations(availability_bound=None,
                                 failover_bound=None, final_ready_min=0.0)


def _round(value: float) -> float:
    """Snap times/durations to a 0.5s grid: keeps canonical JSON short
    and collapses mutants that differ by simulation-irrelevant epsilons."""
    return round(value * 2.0) / 2.0


# -- per-kind parameter models ------------------------------------------------

ParamFn = Callable[[random.Random, ScenarioSpec], Dict[str, object]]
_PARAM_MODELS: Dict[str, ParamFn] = {}


def _params_for(kind: str):
    def register(fn: ParamFn) -> ParamFn:
        _PARAM_MODELS[kind] = fn
        return fn
    return register


def _region(rng: random.Random, spec: ScenarioSpec) -> str:
    return spec.regions[rng.randrange(len(spec.regions))]


def _index(rng: random.Random, spec: ScenarioSpec) -> int:
    return rng.randrange(spec.machines_per_region)


@_params_for("crash_machine")
def _p_crash_machine(rng, spec):
    return {"region": _region(rng, spec), "index": _index(rng, spec)}


@_params_for("crash_rack")
def _p_crash_rack(rng, spec):
    return {"region": _region(rng, spec), "index": _index(rng, spec)}


@_params_for("crash_region")
def _p_crash_region(rng, spec):
    return {"region": _region(rng, spec)}


@_params_for("isolate_region")
def _p_isolate_region(rng, spec):
    return {"region": _region(rng, spec)}


@_params_for("partition_pair")
def _p_partition_pair(rng, spec):
    first = rng.randrange(len(spec.regions))
    second = rng.randrange(len(spec.regions) - 1)
    if second >= first:
        second += 1
    return {"a": spec.regions[first], "b": spec.regions[second]}


@_params_for("zk_expire")
def _p_zk_expire(rng, spec):
    params: Dict[str, object] = {"region": _region(rng, spec),
                                 "reconnect_after":
                                     _round(rng.uniform(2.0, 60.0))}
    if rng.random() < 0.3:
        params["count"] = 1 + rng.randrange(spec.servers_per_region)
    return params


@_params_for("maintenance")
def _p_maintenance(rng, spec):
    impacts = sorted(MaintenanceImpact, key=lambda i: i.value)
    return {"region": _region(rng, spec), "index": _index(rng, spec),
            "notice": _round(rng.uniform(20.0, 80.0)),
            "impact": impacts[rng.randrange(len(impacts))].name}


@_params_for("rolling_upgrade")
def _p_rolling_upgrade(rng, spec):
    return {"region": _region(rng, spec),
            "concurrency": 1 + rng.randrange(spec.servers_per_region),
            "restart_duration": _round(rng.uniform(10.0, 45.0))}


@_params_for("crash_burst")
def _p_crash_burst(rng, spec):
    return {"region": _region(rng, spec),
            "mtbf": _round(rng.uniform(20.0, 90.0)),
            "repair": _round(rng.uniform(10.0, 40.0))}


@_params_for("orchestrator_failover")
def _p_orchestrator_failover(rng, spec):
    return {}


@_params_for("crash_hot_shard")
def _p_crash_hot_shard(rng, spec):
    return {"key": rng.randrange(spec.shards * 16)}


#: Per-kind self-revert duration ranges (a kind registered without a
#: duration has none).
_DURATION_RANGES: Dict[str, Tuple[float, float]] = {
    "crash_machine": (10.0, 90.0),
    "crash_rack": (20.0, 120.0),
    "crash_region": (40.0, 150.0),
    "crash_hot_shard": (10.0, 90.0),
    "isolate_region": (30.0, 120.0),
    "partition_pair": (30.0, 120.0),
    "crash_burst": (60.0, 180.0),
    "maintenance": (60.0, 150.0),
}


def random_action(rng: random.Random, spec: ScenarioSpec,
                  kind: str = None) -> FaultAction:
    """One fresh action of ``kind`` (or a random vocabulary kind),
    with params drawn from the kind's model against ``spec``'s shape."""
    if kind is None:
        kind = FUZZ_KINDS[rng.randrange(len(FUZZ_KINDS))]
    low, high = _DURATION_RANGES.get(kind, (0.0, 0.0))
    duration = _round(rng.uniform(low, high)) if high > 0 else 0.0
    at = _round(rng.uniform(0.0, spec.duration))
    params = _PARAM_MODELS[kind](rng, spec)
    return FaultAction(at=at, kind=kind, duration=duration,
                       params=tuple(sorted(params.items())))


# -- normalization ------------------------------------------------------------

#: Seconds of head-room normalize keeps between an action's full revert
#: and the scenario end (the run stops dead at ``duration``; a recovery
#: scheduled exactly on the boundary may never execute).
_FIT_MARGIN = 1.0

#: Kinds whose revert takes a param's seconds on top of their duration
#: (a burst's last repair, a maintenance window's advance notice).
_EXTRA_SECONDS = {"crash_burst": "repair", "maintenance": "notice"}


def revert_span(spec: ScenarioSpec, action: FaultAction) -> float:
    """Worst-case time after ``action.at`` until the action's effects
    fully revert (last repair / reconnect / window end / final restart).

    The scenario runner stops at ``t0 + duration`` without draining
    in-flight recoveries, so a fault whose revert lands past the end
    has no recovery record and trips the ``fault-recovery`` invariant
    spuriously.  :func:`normalize` uses this bound to keep generated
    timelines *honest*: every violation a candidate produces is then a
    protocol breach, never a truncated-horizon artifact.
    """
    kind = action.kind
    if kind == "zk_expire":
        return float(param_of(spec, action, "reconnect_after"))
    if kind == "rolling_upgrade":
        return (_upgrade_batches(spec, action)
                * float(param_of(spec, action, "restart_duration")))
    if kind in _EXTRA_SECONDS:
        return duration_of(action) + float(
            param_of(spec, action, _EXTRA_SECONDS[kind]))
    return duration_of(action)


def _upgrade_batches(spec: ScenarioSpec, action: FaultAction) -> int:
    concurrency = int(param_of(spec, action, "concurrency"))
    return math.ceil(spec.servers_per_region / max(1, concurrency))


def _floor_grid(value: float) -> float:
    return math.floor(value * 2.0) / 2.0


def _set_param(action: FaultAction, name: str,
               value: object) -> FaultAction:
    params = dict(action.params)
    params[name] = value
    return replace(action, params=tuple(sorted(params.items())))


def _fit_action(spec: ScenarioSpec, action: FaultAction,
                duration: float) -> FaultAction:
    """Clamp one action so its worst-case revert finishes before the
    scenario end: move it earlier first, then shrink its dominant
    self-revert knob if even ``at == 0`` cannot fit it."""
    budget = duration - _FIT_MARGIN
    at = min(max(_round(action.at), 0.0), duration)
    fitted = replace(action, at=at,
                     duration=max(_round(action.duration), 0.0))
    span = revert_span(spec, fitted)
    if at + span <= budget:
        return fitted
    at = max(0.0, _floor_grid(budget - span))
    fitted = replace(fitted, at=at)
    if at + span <= budget:
        return fitted
    # Even at t=0 the revert overruns; shrink the kind's revert knob.
    window = budget
    kind = fitted.kind
    if kind == "zk_expire":
        return _set_param(fitted, "reconnect_after",
                          max(1.0, _floor_grid(window)))
    if kind == "rolling_upgrade":
        return _set_param(
            fitted, "restart_duration",
            max(1.0, _floor_grid(window / _upgrade_batches(spec, fitted))))
    extra, name = 0.0, _EXTRA_SECONDS.get(kind)
    if name is not None:
        extra = float(param_of(spec, fitted, name))
        if extra > window / 2.0:
            extra = max(1.0, _floor_grid(window / 2.0))
            fitted = _set_param(fitted, name, extra)
    return replace(fitted, duration=max(1.0, _floor_grid(window - extra)))


def normalize(spec: ScenarioSpec) -> ScenarioSpec:
    """Clamp times into the scenario window and sort the timeline.

    Every action is fitted so its worst-case revert
    (:func:`revert_span`) completes before the scenario end — the
    run stops dead at ``duration``, so an unfitted fault would trip
    ``fault-recovery`` as a horizon artifact rather than a real breach.
    Sorting by ``(at, kind, params)`` makes the action list a canonical
    set-like form: two mutation paths reaching the same timeline produce
    the same canonical JSON and dedupe in the corpus.
    """
    duration = min(max(_round(spec.duration), MIN_DURATION), MAX_DURATION)
    actions = tuple(sorted(
        (_fit_action(spec, a, duration) for a in spec.actions),
        key=lambda a: (a.at, a.kind, a.params)))
    return replace(spec, actions=actions, duration=duration,
                   expectations=FUZZ_EXPECTATIONS)


# -- seed generation ----------------------------------------------------------

def random_spec(rng: random.Random, name: str) -> ScenarioSpec:
    """A fresh random candidate: 1-4 actions on the base harness shape."""
    duration = _round(rng.uniform(MIN_DURATION, MAX_DURATION))
    shell = ScenarioSpec(name=name, title=f"fuzz candidate {name}",
                         actions=(), duration=duration,
                         expectations=FUZZ_EXPECTATIONS, **BASE_SHAPE)
    actions = tuple(random_action(rng, shell)
                    for _ in range(1 + rng.randrange(4)))
    return normalize(ScenarioSpec(
        name=name, title=shell.title, actions=actions, duration=duration,
        expectations=FUZZ_EXPECTATIONS, **BASE_SHAPE))


#: Random (parentless) multi-action specs mixed into the initial corpus.
EXTRA_RANDOM_SEEDS = 3


def seed_specs(rng: random.Random) -> List[ScenarioSpec]:
    """The initial corpus: one single-action spec per vocabulary kind
    (guaranteed kind coverage, maximally granular mutation parents)
    plus ``EXTRA_RANDOM_SEEDS`` multi-action random specs."""
    specs: List[ScenarioSpec] = []
    for kind in FUZZ_KINDS:
        shell = ScenarioSpec(name=f"seed_{kind}", title=f"seed: {kind}",
                             actions=(), duration=180.0,
                             expectations=FUZZ_EXPECTATIONS, **BASE_SHAPE)
        action = random_action(rng, shell, kind)
        action = FaultAction(at=30.0, kind=action.kind,
                             duration=action.duration, params=action.params)
        specs.append(normalize(ScenarioSpec(
            name=shell.name, title=shell.title, actions=(action,),
            duration=180.0, expectations=FUZZ_EXPECTATIONS, **BASE_SHAPE)))
    for index in range(EXTRA_RANDOM_SEEDS):
        specs.append(random_spec(rng, f"seed_random_{index}"))
    return specs


# -- mutation operators -------------------------------------------------------

MutatorFn = Callable[[random.Random, ScenarioSpec], ScenarioSpec]
MUTATORS: Dict[str, MutatorFn] = {}


def _mutator(name: str):
    def register(fn: MutatorFn) -> MutatorFn:
        MUTATORS[name] = fn
        return fn
    return register


def _with_actions(spec: ScenarioSpec,
                  actions: List[FaultAction]) -> ScenarioSpec:
    return normalize(replace(spec, actions=tuple(actions)))


@_mutator("add_action")
def _m_add_action(rng, spec):
    actions = list(spec.actions)
    actions.append(random_action(rng, spec))
    return _with_actions(spec, actions)


@_mutator("remove_action")
def _m_remove_action(rng, spec):
    # Never empty the timeline: all empty candidates share one
    # fingerprint, so they would just burn budget on duplicates.
    if len(spec.actions) <= 1:
        return _m_add_action(rng, spec)
    actions = list(spec.actions)
    actions.pop(rng.randrange(len(actions)))
    return _with_actions(spec, actions)


@_mutator("shift_time")
def _m_shift_time(rng, spec):
    if not spec.actions:
        return _m_add_action(rng, spec)
    actions = list(spec.actions)
    index = rng.randrange(len(actions))
    old = actions[index]
    actions[index] = FaultAction(
        at=old.at + rng.uniform(-60.0, 60.0), kind=old.kind,
        duration=old.duration, params=old.params)
    return _with_actions(spec, actions)


@_mutator("scale_duration")
def _m_scale_duration(rng, spec):
    if not spec.actions:
        return _m_add_action(rng, spec)
    actions = list(spec.actions)
    index = rng.randrange(len(actions))
    old = actions[index]
    low, high = _DURATION_RANGES.get(old.kind, (0.0, 0.0))
    if high <= 0:
        return _m_shift_time(rng, spec)
    actions[index] = FaultAction(
        at=old.at, kind=old.kind,
        duration=min(max(old.duration * rng.uniform(0.4, 2.0), low), high),
        params=old.params)
    return _with_actions(spec, actions)


@_mutator("redraw_params")
def _m_redraw_params(rng, spec):
    if not spec.actions:
        return _m_add_action(rng, spec)
    actions = list(spec.actions)
    index = rng.randrange(len(actions))
    old = actions[index]
    params = _PARAM_MODELS[old.kind](rng, spec)
    actions[index] = FaultAction(at=old.at, kind=old.kind,
                                 duration=old.duration,
                                 params=tuple(sorted(params.items())))
    return _with_actions(spec, actions)


@_mutator("duplicate_action")
def _m_duplicate_action(rng, spec):
    if not spec.actions:
        return _m_add_action(rng, spec)
    actions = list(spec.actions)
    old = actions[rng.randrange(len(actions))]
    actions.append(FaultAction(
        at=_round(rng.uniform(0.0, spec.duration)), kind=old.kind,
        duration=old.duration, params=old.params))
    return _with_actions(spec, actions)


@_mutator("stretch_scenario")
def _m_stretch_scenario(rng, spec):
    return normalize(replace(
        spec, duration=spec.duration * rng.uniform(0.7, 1.4)))


_MUTATOR_NAMES = tuple(sorted(MUTATORS))


def mutate(rng: random.Random, spec: ScenarioSpec,
           name: str = None) -> ScenarioSpec:
    """Apply 1-3 random mutation operators; the result is normalized,
    renamed (candidates carry their own identity) and always valid."""
    child = spec
    for _ in range(1 + rng.randrange(3)):
        operator = MUTATORS[_MUTATOR_NAMES[rng.randrange(
            len(_MUTATOR_NAMES))]]
        child = operator(rng, child)
    if name is not None:
        child = replace(child, name=name, title=f"fuzz candidate {name}")
    return child


def crossover(rng: random.Random, first: ScenarioSpec,
              second: ScenarioSpec, name: str = None) -> ScenarioSpec:
    """One-point timeline splice: the early half of ``first``'s actions
    with the late half of ``second``'s, on ``first``'s harness shape.

    Both parents share the fuzzer's base shape, so ``second``'s region
    and index params resolve against ``first``'s spec unchanged.
    """
    def resolvable(action: FaultAction) -> bool:
        return all(action.param(name) is None
                   or action.param(name) in first.regions
                   for name, param in ACTIONS[action.kind].params.items()
                   if param.region)

    cut = _round(rng.uniform(0.0, first.duration))
    actions = [a for a in first.actions if a.at <= cut]
    actions += [a for a in second.actions if a.at > cut and resolvable(a)]
    child = _with_actions(first, actions)
    if not child.actions:
        child = _m_add_action(rng, child)
    if name is not None:
        child = replace(child, name=name, title=f"fuzz candidate {name}")
    return child
