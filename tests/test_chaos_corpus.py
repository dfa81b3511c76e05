"""Replay the checked-in fuzz corpus: distilled repros stay green.

Every entry under ``tests/fixtures/chaos_corpus/`` is a fuzzer-distilled
minimal scenario checked in as a permanent regression.  Replaying one
must be deterministic (two runs, bit-identical journal digests), must
reproduce the behaviour digest recorded with it (the journal minus the
engine track and record positions: it survives simulator-substrate
changes, so only a change in what the simulated system *does* trips it),
must still produce the novel coverage keys that earned the entry its place,
and — for entries distilled from invariant-violating timelines — the
originally-violated invariants must now pass (the bug the repro caught
stays fixed).
"""

import json
from pathlib import Path

import pytest

from repro.chaos import ScenarioSpec, validate_spec
from repro.chaos.fuzz.engine import evaluate_spec

CORPUS_DIR = Path(__file__).parent / "fixtures" / "chaos_corpus"
ENTRY_FILES = sorted(CORPUS_DIR.glob("*.json"))


def load_entry(path):
    data = json.loads(path.read_text())
    spec = validate_spec(ScenarioSpec.from_dict(data["spec"]))
    return spec, data.get("meta", {})


def test_corpus_has_the_minimum_fixture_count():
    assert len(ENTRY_FILES) >= 3, \
        "tests/fixtures/chaos_corpus must keep >= 3 distilled entries"


@pytest.mark.parametrize("path", ENTRY_FILES, ids=lambda p: p.stem)
def test_corpus_entry_replays_deterministically(path):
    spec, meta = load_entry(path)
    seed = int(meta.get("run_seed", 0))
    first = evaluate_spec(spec, "sm", seed)
    second = evaluate_spec(spec, "sm", seed)
    assert first["digest"] == second["digest"], \
        "replaying the same (spec, seed) must be bit-stable"
    assert first["coverage"] == second["coverage"]


@pytest.mark.parametrize("path", ENTRY_FILES, ids=lambda p: p.stem)
def test_corpus_entry_reproduces_its_recorded_behaviour(path):
    spec, meta = load_entry(path)
    assert meta.get("behaviour_digest"), \
        "corpus entries record the behaviour digest replay is held to"
    result = evaluate_spec(spec, "sm", int(meta.get("run_seed", 0)))
    assert result["behaviour_digest"] == meta["behaviour_digest"]


@pytest.mark.parametrize("path", ENTRY_FILES, ids=lambda p: p.stem)
def test_corpus_entry_keeps_its_novel_coverage(path):
    spec, meta = load_entry(path)
    result = evaluate_spec(spec, "sm", int(meta.get("run_seed", 0)))
    novel = set(meta.get("novel", ()))
    assert novel, "distilled entries record the keys they were kept for"
    assert novel <= set(result["coverage"]), \
        f"lost distilled coverage keys: {sorted(novel - set(result['coverage']))}"


@pytest.mark.parametrize("path", ENTRY_FILES, ids=lambda p: p.stem)
def test_originally_violated_invariants_now_pass(path):
    spec, meta = load_entry(path)
    result = evaluate_spec(spec, "sm", int(meta.get("run_seed", 0)))
    violated_now = {v["invariant"] for v in result["violations"]}
    assert not violated_now, \
        f"corpus repro violates invariants: {sorted(violated_now)}"
    # Vacuous for coverage-distilled entries (meta.violated == []); for
    # violation repros this is the regression bite: the invariant the
    # timeline originally broke must stay fixed.
    assert not (set(meta.get("violated", ())) & violated_now)
