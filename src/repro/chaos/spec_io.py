"""Scenario specs on disk: JSON round-trip plus schedulability checks.

``ScenarioSpec.to_dict()`` / ``from_dict()`` (on the dataclasses) are
the shape layer — field names, types, registered action kinds.  This
module adds the file layer (:func:`load_spec`) and the
*schedulability* layer (:func:`validate_spec`): a spec can be
well-formed JSON and still be unrunnable (an action scheduled past the
scenario end, a region target the harness never builds).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Union

from .scenario import ACTIONS, EXPECTATION_FIELDS, SCALAR_FIELDS, ScenarioSpec

__all__ = ["SpecValidationError", "validate_spec", "load_spec"]


class SpecValidationError(ValueError):
    """A structurally valid spec that cannot be scheduled as written."""


def validate_spec(spec: ScenarioSpec) -> ScenarioSpec:
    """Raise :class:`SpecValidationError` unless ``spec`` is runnable.

    Checks (beyond the shape layer): every scenario-level scalar and
    expectation bound finite and in its range (``scenario.SCALAR_FIELDS``,
    ``scenario.EXPECTATION_FIELDS``), distinct non-empty
    region names, every action kind registered, action times inside
    ``[0, duration]``, finite non-negative durations and none on an
    instantaneous kind (one registered without a duration), a preferred
    region per shard at most and each one of the spec's, and every param one
    its kind registered (:func:`repro.chaos.scenario.action`), of that
    type and in that range — a region-naming param resolvable against
    the spec's region list.  Nothing is built or run.  Returns the spec
    for call chaining.
    """
    for name, param in SCALAR_FIELDS.items():
        problem = param.problem(getattr(spec, name), spec)
        if problem:
            raise SpecValidationError(f"{spec.name}: {name} {problem}")
    for name, param in EXPECTATION_FIELDS.items():
        problem = param.problem(getattr(spec.expectations, name), spec)
        if problem:
            raise SpecValidationError(
                f"{spec.name}: expectations {name} {problem}")
    if (not spec.regions or len(set(spec.regions)) != len(spec.regions)
            or not all(isinstance(r, str) and r for r in spec.regions)):
        raise SpecValidationError(
            f"{spec.name}: regions must be distinct non-empty names, "
            f"got {list(spec.regions)!r}")
    if spec.servers_per_region > spec.machines_per_region:
        raise SpecValidationError(
            f"{spec.name}: servers_per_region "
            f"({spec.servers_per_region}) exceeds machines_per_region "
            f"({spec.machines_per_region})")
    if len(spec.preferred_regions) > spec.shards:
        raise SpecValidationError(
            f"{spec.name}: preferred_regions names "
            f"{len(spec.preferred_regions)} shards, more than shards "
            f"({spec.shards})")
    for region in spec.preferred_regions:
        if region not in spec.regions:
            raise SpecValidationError(
                f"{spec.name}: preferred_regions entry {region!r} is not "
                f"one of the regions {list(spec.regions)!r}")
    for action in spec.actions:
        if action.kind not in ACTIONS:
            raise SpecValidationError(
                f"{spec.name}: unknown action kind {action.kind!r}; "
                f"known: {sorted(ACTIONS)}")
        if not 0.0 <= action.at <= spec.duration:
            raise SpecValidationError(
                f"{spec.name}: action {action.kind!r} at t={action.at!r} "
                f"is outside [0, {spec.duration!r}]")
        if not 0.0 <= action.duration < math.inf:
            raise SpecValidationError(
                f"{spec.name}: action {action.kind!r} needs a finite "
                f"non-negative duration, got {action.duration!r}")
        if action.duration and not ACTIONS[action.kind].duration:
            raise SpecValidationError(
                f"{spec.name}: action {action.kind!r} is instantaneous and "
                f"takes no duration, got {action.duration!r}")
        known = ACTIONS[action.kind].params
        for name, value in action.params:
            if name not in known:
                raise SpecValidationError(
                    f"{spec.name}: action {action.kind!r} has no param "
                    f"{name!r}; known: {sorted(known)}")
            problem = known[name].problem(value, spec)
            if problem:
                raise SpecValidationError(
                    f"{spec.name}: action {action.kind!r} param {name!r} "
                    f"{problem}")
    return spec


def load_spec(path: Union[str, Path]) -> ScenarioSpec:
    """Load, parse and validate a spec JSON file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise SpecValidationError(f"{path}: not valid JSON: {error}") \
            from None
    try:
        return validate_spec(ScenarioSpec.from_dict(data))
    except ValueError as error:     # shape or schedulability: name the file
        raise SpecValidationError(f"{path}: {error}") from None

