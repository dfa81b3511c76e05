"""The fuzz loop: generate → run → fingerprint → prioritize → shrink.

One :class:`FuzzEngine` run is a pure function of its
:class:`FuzzConfig`.  The loop:

1. seed the corpus (one single-action spec per vocabulary kind plus a
   few random multi-action specs), run and admit them;
2. each round, draw a batch of candidates — energy-weighted parents
   mutated or crossed (:mod:`~repro.chaos.fuzz.mutators`), renamed to
   their timeline fingerprint so identical timelines dedupe — and run
   the batch (serially or over a multiprocessing pool via
   :func:`repro.experiments.runner.fuzz_task`);
3. merge results **in submission order** (pool scheduling can never
   leak into corpus state), admit coverage-novel candidates, record
   violating ones;
4. when the execution budget is spent, delta-debug every violating
   timeline to a minimal repro (:mod:`~repro.chaos.fuzz.shrink`) whose
   predicate is "the same invariant set still breaks under the same
   run seed".

Per-candidate run seeds derive from ``(config.seed, timeline
fingerprint)``, so a spec's journal digest is reproducible from its
corpus entry alone: ``run_scenario(spec, arm, seed=meta.run_seed)``
must re-produce ``meta.digest`` bit-for-bit — the regression tests
replay checked-in corpus entries exactly this way.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ...sim.rng import substream
from ..scenario import ScenarioSpec, run_scenario
from ..spec_io import spec_fingerprint, validate_spec
from .corpus import Corpus, CorpusEntry
from .mutators import crossover, mutate, random_spec, seed_specs
from .shrink import shrink

__all__ = ["FuzzConfig", "FuzzStats", "FuzzEngine", "FuzzResult",
           "evaluate_spec", "run_seed_for"]


#: Probability a candidate is a two-parent crossover (else mutation).
CROSSOVER_RATE = 0.2


def run_seed_for(seed: int, fingerprint: str) -> int:
    """The deterministic run_scenario seed for one candidate."""
    digest = hashlib.sha256(f"{seed}|{fingerprint}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def evaluate_spec(spec: ScenarioSpec, arm: str, seed: int,
                  capacity: int = 1 << 20) -> Dict[str, Any]:
    """Run one candidate and reduce it to the fuzzer's view of the run.

    A run whose journal ring overflowed raises: its coverage keys and
    invariant verdicts come from a truncated trace, and admitting either
    into the corpus would steer the search by what the ring happened to
    keep.
    """
    result = run_scenario(spec, arm=arm, seed=seed, capacity=capacity)
    if result.dropped:
        raise RuntimeError(
            f"{spec.name}: journal dropped {result.dropped} of "
            f"{result.records} records at capacity {capacity}; rerun with "
            f"a larger capacity")
    return {
        "digest": result.digest,
        "behaviour_digest": result.behaviour_digest,
        "coverage": list(result.coverage),
        "violations": result.violations,
        "records": result.records,
        "faults": result.faults,
        "recovers": result.recovers,
    }


@dataclass
class FuzzConfig:
    """Everything a fuzz run depends on (the determinism domain)."""

    seed: int = 42
    #: Total candidate executions (corpus seeds included; shrink
    #: evaluations are budgeted separately per violation).
    budget: int = 200
    #: Candidates generated per round.
    batch: int = 8
    arm: str = "sm"
    capacity: int = 1 << 20
    #: Delta-debug violating timelines after the search.
    shrink_violations: bool = True
    #: Max predicate evaluations per shrink.
    shrink_evals: int = 48
    #: Worker processes for batch evaluation (0/1 = in-process serial).
    processes: int = 0


@dataclass
class FuzzStats:
    executed: int = 0
    admitted: int = 0
    duplicates: int = 0          # candidates regenerated as already-seen
    violating: int = 0
    shrink_evals: int = 0
    rounds: int = 0


@dataclass
class FuzzResult:
    """What a finished search hands back to the CLI / tests."""

    corpus: Corpus
    violations: List[CorpusEntry] = field(default_factory=list)
    stats: FuzzStats = field(default_factory=FuzzStats)

    def coverage_set(self) -> FrozenSet[str]:
        return self.corpus.coverage_set()

    def coverage_digest(self) -> str:
        """SHA-256 over the sorted coverage-key set — the one-line
        identity the determinism check compares across runs."""
        payload = "\n".join(sorted(self.corpus.coverage_set()))
        return hashlib.sha256(payload.encode()).hexdigest()

    def digests(self) -> Dict[str, str]:
        """fingerprint -> journal digest for every corpus entry."""
        return {e.fingerprint: e.digest for e in self.corpus.entries}


class FuzzEngine:
    """One coverage-guided search over the scenario space."""

    def __init__(self, config: FuzzConfig) -> None:
        self.config = config
        self._counter = 0

    # -- candidate evaluation ------------------------------------------------

    def _evaluate_batch(self, specs: Sequence[ScenarioSpec],
                        seeds: Sequence[int], pool) -> List[Dict[str, Any]]:
        config = self.config
        if pool is None:
            return [evaluate_spec(spec, config.arm, seed, config.capacity)
                    for spec, seed in zip(specs, seeds)]
        from ...experiments import runner
        jobs = [{"spec": spec.to_dict(), "arm": config.arm, "seed": seed,
                 "capacity": config.capacity}
                for spec, seed in zip(specs, seeds)]
        return pool.map(runner.fuzz_eval_task, jobs)

    def _canonical_candidate(
            self, spec: ScenarioSpec) -> Tuple[ScenarioSpec, str]:
        """Rename a candidate to its timeline fingerprint (identical
        timelines collide no matter which operator produced them)."""
        fingerprint = spec_fingerprint(spec)
        from dataclasses import replace
        named = replace(spec, name=f"fuzz_{fingerprint[:12]}",
                        title=f"fuzzed timeline {fingerprint[:12]}")
        return named, fingerprint

    def _next_candidates(self, rng, corpus: Corpus,
                         count: int) -> List[Tuple[ScenarioSpec, str, str,
                                                   Optional[str]]]:
        """Generate ``count`` fresh (spec, fingerprint, op, parent)
        candidates, retrying a few times on corpus duplicates."""
        out: List[Tuple[ScenarioSpec, str, str, Optional[str]]] = []
        seen_now = set()
        for _ in range(count):
            for _attempt in range(6):
                op = "mutate"
                parent: Optional[CorpusEntry] = None
                if not len(corpus):
                    self._counter += 1
                    child = random_spec(rng, f"cand_{self._counter}")
                    op = "random"
                elif (len(corpus) >= 2
                        and rng.random() < CROSSOVER_RATE):
                    parent = corpus.pick(rng)
                    other = corpus.pick(rng)
                    self._counter += 1
                    child = crossover(rng, parent.spec, other.spec,
                                      f"cand_{self._counter}")
                    op = "crossover"
                else:
                    parent = corpus.pick(rng)
                    self._counter += 1
                    child = mutate(rng, parent.spec,
                                   f"cand_{self._counter}")
                child, fingerprint = self._canonical_candidate(child)
                if corpus.knows(fingerprint) or fingerprint in seen_now:
                    self.stats.duplicates += 1
                    continue
                validate_spec(child)
                seen_now.add(fingerprint)
                out.append((child, fingerprint, op,
                            parent.fingerprint if parent else None))
                break
        return out

    # -- the search ----------------------------------------------------------

    def run(self) -> FuzzResult:
        config = self.config
        self.stats = FuzzStats()
        rng = substream(config.seed, "chaos", "fuzz", "search")
        corpus = Corpus()
        violations: List[CorpusEntry] = []

        pool = None
        if config.processes and config.processes > 1:
            import multiprocessing
            pool = multiprocessing.Pool(processes=config.processes)
        try:
            seeds_rng = substream(config.seed, "chaos", "fuzz", "seeds")
            pending = [
                (spec_named, fingerprint, "seed", None)
                for spec_named, fingerprint in
                (self._canonical_candidate(spec) for spec in
                 seed_specs(seeds_rng))
            ]
            remaining = config.budget
            while remaining > 0 and pending:
                batch = pending[:remaining]
                pending = []
                specs = [spec for spec, _, _, _ in batch]
                run_seeds = [run_seed_for(config.seed, fingerprint)
                             for _, fingerprint, _, _ in batch]
                results = self._evaluate_batch(specs, run_seeds, pool)
                remaining -= len(batch)
                self.stats.executed += len(batch)
                self.stats.rounds += 1
                for (spec, fingerprint, op, parent), run_seed, result \
                        in zip(batch, run_seeds, results):
                    coverage = frozenset(result["coverage"])
                    violated = frozenset(
                        v["invariant"] for v in result["violations"])
                    entry = CorpusEntry(
                        spec=spec, fingerprint=fingerprint,
                        run_seed=run_seed, digest=result["digest"],
                        behaviour_digest=result["behaviour_digest"],
                        coverage=coverage,
                        novel=corpus.novel_keys(coverage),
                        violated=violated, parent=parent, op=op)
                    if violated:
                        self.stats.violating += 1
                        violations.append(entry)
                    if corpus.admit(entry):
                        self.stats.admitted += 1
                    else:
                        corpus.observe(coverage)
                if remaining > 0:
                    pending = self._next_candidates(
                        rng, corpus, min(config.batch, remaining))

            if config.shrink_violations:
                violations = [self._shrink_violation(entry)
                              for entry in violations]
        finally:
            if pool is not None:
                pool.close()
                pool.join()

        return FuzzResult(corpus=corpus, violations=violations,
                          stats=self.stats)

    # -- violation distillation ----------------------------------------------

    def _shrink_violation(self, entry: CorpusEntry) -> CorpusEntry:
        """Delta-debug a violating timeline to a minimal repro that
        breaks the *same* invariant set under the *same* run seed."""
        config = self.config
        target = entry.violated

        def still_violates(spec: ScenarioSpec) -> bool:
            result = evaluate_spec(spec, config.arm, entry.run_seed,
                                   config.capacity)
            observed = frozenset(v["invariant"]
                                 for v in result["violations"])
            return target <= observed

        minimal, spent = shrink(entry.spec, still_violates,
                                max_evals=config.shrink_evals)
        self.stats.shrink_evals += spent
        minimal, fingerprint = self._canonical_candidate(minimal)
        final = evaluate_spec(minimal, config.arm, entry.run_seed,
                              config.capacity)
        return CorpusEntry(
            spec=minimal, fingerprint=fingerprint,
            run_seed=entry.run_seed, digest=final["digest"],
            behaviour_digest=final["behaviour_digest"],
            coverage=frozenset(final["coverage"]),
            novel=entry.novel,
            violated=frozenset(v["invariant"]
                               for v in final["violations"]),
            parent=entry.fingerprint, op="shrink")
