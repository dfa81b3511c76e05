"""Scenario specs on disk: JSON round-trip plus schedulability checks.

``ScenarioSpec.to_dict()`` / ``from_dict()`` (on the dataclasses) are
the shape layer — field names, types, registered action kinds.  This
module adds the file layer (:func:`load_spec` / :func:`dump_spec`) and
the *schedulability* layer (:func:`validate_spec`): a spec can be
well-formed JSON and still be unrunnable (an action scheduled past the
scenario end, a region target the harness never builds).  The fuzzer
calls :func:`validate_spec` on every generated candidate, and the
property tests assert that every mutator/crossover output passes it.

The canonical JSON form is sorted-key, compact-separator JSON — the
stable identity :func:`spec_fingerprint` hashes, from which the fuzzer
derives per-spec run seeds and dedupes the corpus, so
``(seed, spec JSON) -> journal digest`` has a well-defined left side.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Union

from .scenario import ACTIONS, SCALAR_FIELDS, ScenarioSpec

__all__ = ["SpecValidationError", "validate_spec", "load_spec",
           "dump_spec", "spec_fingerprint"]


class SpecValidationError(ValueError):
    """A structurally valid spec that cannot be scheduled as written."""


def validate_spec(spec: ScenarioSpec) -> ScenarioSpec:
    """Raise :class:`SpecValidationError` unless ``spec`` is runnable.

    Checks (beyond the shape layer): every scenario-level scalar finite
    and in its range (``scenario.SCALAR_FIELDS``), distinct non-empty
    region names, every action kind registered, action times inside
    ``[0, duration]``, finite non-negative durations, and every param one
    its kind registered (:func:`repro.chaos.scenario.action`), of that
    type and in that range — a region-naming param resolvable against
    the spec's region list.  Nothing is built or run.  Returns the spec
    for call chaining.
    """
    for name, param in SCALAR_FIELDS.items():
        problem = param.problem(getattr(spec, name), spec)
        if problem:
            raise SpecValidationError(f"{spec.name}: {name} {problem}")
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


def spec_fingerprint(spec: ScenarioSpec) -> str:
    """SHA-256 of the canonical JSON *minus* ``name``/``title`` — the
    timeline identity the fuzzer uses for corpus dedupe and run-seed
    derivation, so two identically-shaped candidates collide regardless
    of the labels they were generated under."""
    data = spec.to_dict()
    data.pop("name", None)
    data.pop("title", None)
    return hashlib.sha256(json.dumps(data, sort_keys=True,
                                     separators=(",", ":")).encode()
                          ).hexdigest()


def load_spec(path: Union[str, Path]) -> ScenarioSpec:
    """Load, parse and validate a spec JSON file.

    Corpus entry files (``{"spec": ..., "meta": ...}``) are accepted
    too: the ``spec`` object is unwrapped so ``--replay`` works on both
    bare specs and checked-in corpus entries.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise SpecValidationError(f"{path}: not valid JSON: {error}") \
            from None
    if isinstance(data, dict) and "spec" in data and "name" not in data:
        data = data["spec"]
    try:
        return validate_spec(ScenarioSpec.from_dict(data))
    except ValueError as error:     # shape or schedulability: name the file
        raise SpecValidationError(f"{path}: {error}") from None


def dump_spec(spec: ScenarioSpec, path: Union[str, Path]) -> Path:
    """Write a spec as readable JSON, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spec.to_dict(), indent=1, sort_keys=True)
                    + "\n")
    return path
