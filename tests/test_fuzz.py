"""Property and determinism tests for the coverage-guided chaos fuzzer."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ScenarioSpec, spec_fingerprint, validate_spec
from repro.chaos.fuzz import (Corpus, CorpusEntry, FuzzConfig, FuzzEngine,
                              crossover, mutate, seed_specs, shrink)
from repro.chaos.fuzz.engine import evaluate_spec, run_seed_for
from repro.chaos.fuzz.mutators import (FUZZ_KINDS, normalize, random_spec,
                                       revert_span)
from repro.obs.coverage import coverage_summary, violation_invariants


def assert_schedulable(spec: ScenarioSpec) -> None:
    """The fuzzer's output contract: valid, canonical, horizon-honest."""
    validate_spec(spec)
    keys = [(a.at, a.kind, a.params) for a in spec.actions]
    assert keys == sorted(keys), "actions must be canonically sorted"
    for action in spec.actions:
        assert 0.0 <= action.at <= spec.duration
        # Worst-case revert fits before the hard stop at `duration`,
        # so fault-recovery violations are real breaches, never
        # truncated-horizon artifacts.
        assert action.at + revert_span(spec, action) < spec.duration


# -- generator/mutator/crossover properties -----------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_random_specs_are_schedulable(seed):
    rng = random.Random(seed)
    assert_schedulable(random_spec(rng, f"gen_{seed}"))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000),
       steps=st.integers(min_value=1, max_value=5))
def test_mutation_chains_stay_schedulable(seed, steps):
    rng = random.Random(seed)
    spec = random_spec(rng, "parent")
    for step in range(steps):
        spec = mutate(rng, spec, f"child_{step}")
        assert_schedulable(spec)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_crossover_outputs_are_schedulable(seed):
    rng = random.Random(seed)
    first = random_spec(rng, "first")
    second = random_spec(rng, "second")
    child = crossover(rng, first, second, "child")
    assert_schedulable(child)
    assert child.actions, "crossover never produces an empty timeline"


def test_seed_specs_cover_the_whole_vocabulary():
    specs = seed_specs(random.Random(0))
    kinds = {spec.actions[0].kind for spec in specs
             if spec.name.startswith("seed_") and spec.actions}
    assert kinds >= set(FUZZ_KINDS)
    for spec in specs:
        assert_schedulable(spec)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_normalize_is_idempotent(seed):
    spec = random_spec(random.Random(seed), "norm")
    assert normalize(spec) == spec


# -- shrinking ----------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_shrink_preserves_its_predicate(seed):
    """Shrinking against a synthetic predicate (timeline still contains
    the first action's kind) must keep it true, stay schedulable, and
    never grow the timeline."""
    rng = random.Random(seed)
    spec = random_spec(rng, "to_shrink")
    wanted = spec.actions[0].kind

    def has_kind(candidate: ScenarioSpec) -> bool:
        return any(a.kind == wanted for a in candidate.actions)

    minimal, spent = shrink(spec, has_kind, max_evals=40)
    assert has_kind(minimal)
    assert_schedulable(minimal)
    assert len(minimal.actions) <= len(spec.actions)
    assert spent <= 40


def test_shrink_reaches_single_action_for_single_kind_predicate():
    rng = random.Random(3)
    spec = random_spec(rng, "big")
    for _ in range(4):
        spec = mutate(rng, spec, "bigger")
    wanted = spec.actions[0].kind
    minimal, _ = shrink(
        spec, lambda s: any(a.kind == wanted for a in s.actions),
        max_evals=80)
    assert [a.kind for a in minimal.actions].count(wanted) >= 1
    assert all(a.kind == wanted for a in minimal.actions)
    assert len(minimal.actions) == 1


# -- corpus -------------------------------------------------------------------

def entry_for(spec, coverage, seed=0):
    return CorpusEntry(spec=spec, fingerprint=spec_fingerprint(spec),
                       run_seed=seed, digest="d" * 64,
                       behaviour_digest="b" * 64,
                       coverage=frozenset(coverage), novel=frozenset())


def test_corpus_admits_only_novel_coverage():
    corpus = Corpus()
    first = random_spec(random.Random(0), "a")
    second = random_spec(random.Random(1), "b")
    third = random_spec(random.Random(2), "c")
    assert corpus.admit(entry_for(first, {"k1", "k2"}))
    assert not corpus.admit(entry_for(second, {"k1"})), "no new keys"
    assert corpus.admit(entry_for(third, {"k1", "k3"}))
    assert corpus.entries[-1].novel == {"k3"}
    assert corpus.coverage_set() == {"k1", "k2", "k3"}


def test_corpus_rejects_duplicate_fingerprints():
    corpus = Corpus()
    spec = random_spec(random.Random(0), "a")
    assert corpus.admit(entry_for(spec, {"k1"}))
    assert not corpus.admit(entry_for(spec, {"k2", "k3"}))


def test_corpus_save_load_round_trip(tmp_path):
    corpus = Corpus()
    for index in range(3):
        spec = random_spec(random.Random(index), f"s{index}")
        corpus.admit(entry_for(spec, {f"k{index}", "shared"}, seed=index))
    corpus.save(tmp_path)
    loaded = Corpus.load(tmp_path)
    assert len(loaded) == len(corpus)
    assert loaded.coverage_set() == corpus.coverage_set()
    assert [e.fingerprint for e in loaded.entries] == \
        [e.fingerprint for e in corpus.entries]
    assert [(e.digest, e.behaviour_digest) for e in loaded.entries] == \
        [("d" * 64, "b" * 64)] * len(corpus)


def test_energy_weighted_pick_is_deterministic():
    def build():
        corpus = Corpus()
        for index in range(4):
            spec = random_spec(random.Random(index), f"s{index}")
            corpus.admit(entry_for(spec,
                                   {f"k{j}" for j in range(index + 1)}))
        return corpus

    corpus_a, corpus_b = build(), build()
    rng_a, rng_b = random.Random(9), random.Random(9)
    picks_a = [corpus_a.pick(rng_a).fingerprint for _ in range(10)]
    picks_b = [corpus_b.pick(rng_b).fingerprint for _ in range(10)]
    assert picks_a == picks_b


# -- engine determinism -------------------------------------------------------

def test_run_seed_for_is_stable():
    assert run_seed_for(42, "abc") == run_seed_for(42, "abc")
    assert run_seed_for(42, "abc") != run_seed_for(43, "abc")
    assert run_seed_for(42, "abc") != run_seed_for(42, "abd")


def test_fuzz_search_is_deterministic():
    """The determinism contract end to end: two identical searches
    produce the same corpus coverage-key set and identical per-spec
    journal digests."""
    config = FuzzConfig(seed=11, budget=14, batch=4,
                        shrink_violations=False)
    first = FuzzEngine(config).run()
    second = FuzzEngine(config).run()
    assert first.coverage_set() == second.coverage_set()
    assert first.digests() == second.digests()
    assert first.stats.executed == second.stats.executed == 14
    assert len(first.corpus) >= 1


def test_fuzz_candidates_carry_coverage_and_violation_signal():
    result = FuzzEngine(FuzzConfig(seed=5, budget=11, batch=4,
                                   shrink_violations=False)).run()
    keys = result.coverage_set()
    # The seed round alone must light up the core taxonomy tracks.
    assert any(k.startswith("chaos:fault:") for k in keys)
    assert any(k.startswith("net:") for k in keys)
    assert any(k.startswith("orchestrator:") for k in keys)
    for entry in result.corpus.entries:
        assert entry.coverage
        assert entry.digest
        assert entry.behaviour_digest and entry.behaviour_digest != entry.digest
        assert entry.run_seed == run_seed_for(5, entry.fingerprint)


def test_candidate_with_a_truncated_journal_is_an_error():
    """Coverage keys and verdicts from a clipped ring must never reach
    the corpus: the evaluation fails and says which capacity was used."""
    spec = seed_specs(random.Random(0))[0]
    assert evaluate_spec(spec, "sm", seed=3)["records"] > 64
    with pytest.raises(RuntimeError, match=r"dropped \d+ of \d+ records "
                                           r"at capacity 64"):
        evaluate_spec(spec, "sm", seed=3, capacity=64)


# -- coverage helpers ---------------------------------------------------------

def test_violation_invariants_accepts_both_forms():
    from repro.obs.checker import Violation
    violation = Violation(invariant="primary-uniqueness", seq=3,
                          message="two READY primaries")
    assert violation_invariants([
        {"invariant": "fault-recovery"}, violation]) == \
        {"fault-recovery", "primary-uniqueness"}


def test_coverage_summary_is_one_line():
    summary = coverage_summary(frozenset(
        {"chaos:fault:x", "chaos:fault:y", "net:app.request"}))
    assert "\n" not in summary
    assert summary.startswith("3 keys")
    assert "chaos=2" in summary and "net=1" in summary
