"""The fuzz corpus: coverage-novel specs, energy scheduling, disk form.

A :class:`CorpusEntry` is one kept candidate — its spec, the coverage
keys its run produced, the subset that was *novel* when it was admitted
(its contribution to the global coverage set), its journal digest and
run seed, and scheduling bookkeeping.  The :class:`Corpus` admits a
candidate only if it contributes at least one new coverage key, so the
corpus is a minimal-ish covering set of the behaviour space found so
far.

**Energy / scheduling policy** (AFL-flavoured, fully deterministic):
an entry's energy is ``(1 + novel_keys) / (1 + times_picked)`` scaled
down for long timelines — entries that opened new behaviour get fuzzed
more, entries that have been milked repeatedly decay, and shorter specs
(cheaper to run, easier to shrink) are preferred at equal coverage.
Parents are drawn energy-weighted through the engine's seeded RNG, so
the pick sequence is a pure function of the fuzz seed and the admitted
corpus.

**Disk form**: one JSON file per entry —
``{"spec": <ScenarioSpec.to_dict()>, "meta": {...}}`` — readable by
``run_chaos.py --scenario @file.json`` (the loader unwraps ``spec``)
and by the regression tests that replay ``tests/fixtures/chaos_corpus``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Union

from ..scenario import ScenarioSpec
from ..spec_io import spec_fingerprint, validate_spec

__all__ = ["CorpusEntry", "Corpus"]


@dataclass
class CorpusEntry:
    """One admitted spec plus the evidence that earned it admission."""

    spec: ScenarioSpec
    fingerprint: str                 # sha-256 of the spec's canonical JSON
    run_seed: int                    # the deterministic run_scenario seed
    digest: str                      # journal digest of the admitting run
    coverage: FrozenSet[str]         # full fingerprint of that run
    novel: FrozenSet[str]            # keys new to the corpus at admission
    violated: FrozenSet[str] = frozenset()   # invariants breached (if any)
    parent: Optional[str] = None     # parent fingerprint (provenance)
    op: str = "seed"                 # seed | mutate | crossover | shrink
    picked: int = 0                  # times chosen as a mutation parent
    #: Journal.behaviour_digest() of the admitting run: what replay pins,
    #: because it survives simulator-substrate changes that move `digest`.
    behaviour_digest: str = ""

    def energy(self) -> float:
        """Scheduling weight: novelty up, repeated picks and size down."""
        size_penalty = 1.0 + len(self.spec.actions) / 8.0
        return (1.0 + len(self.novel)) / ((1.0 + self.picked)
                                          * size_penalty)

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec.to_dict(),
            "meta": {
                "fingerprint": self.fingerprint,
                "run_seed": self.run_seed,
                "digest": self.digest,
                "behaviour_digest": self.behaviour_digest,
                "coverage": sorted(self.coverage),
                "novel": sorted(self.novel),
                "violated": sorted(self.violated),
                "parent": self.parent,
                "op": self.op,
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CorpusEntry":
        spec = validate_spec(ScenarioSpec.from_dict(data["spec"]))
        meta = data.get("meta", {})
        return cls(
            spec=spec,
            fingerprint=meta.get("fingerprint", spec_fingerprint(spec)),
            run_seed=int(meta.get("run_seed", 0)),
            digest=meta.get("digest", ""),
            coverage=frozenset(meta.get("coverage", ())),
            novel=frozenset(meta.get("novel", ())),
            violated=frozenset(meta.get("violated", ())),
            parent=meta.get("parent"),
            op=meta.get("op", "seed"),
            behaviour_digest=meta.get("behaviour_digest", ""),
        )


@dataclass
class Corpus:
    """The evolving, coverage-prioritized candidate population."""

    entries: List[CorpusEntry] = field(default_factory=list)
    seen_keys: set = field(default_factory=set)
    seen_fingerprints: set = field(default_factory=set)

    def __len__(self) -> int:
        return len(self.entries)

    def knows(self, fingerprint: str) -> bool:
        return fingerprint in self.seen_fingerprints

    def novel_keys(self, coverage: FrozenSet[str]) -> FrozenSet[str]:
        return frozenset(coverage - self.seen_keys)

    def admit(self, entry: CorpusEntry) -> bool:
        """Add ``entry`` if it contributes new coverage (or is a seed
        for an empty corpus).  Duplicate specs never re-enter."""
        if entry.fingerprint in self.seen_fingerprints:
            return False
        novel = self.novel_keys(entry.coverage)
        if not novel and self.entries:
            return False
        entry.novel = novel if self.entries else entry.coverage
        self.entries.append(entry)
        self.seen_keys |= entry.coverage
        self.seen_fingerprints.add(entry.fingerprint)
        return True

    def observe(self, coverage: FrozenSet[str]) -> None:
        """Fold a non-admitted run's keys into the global set (a run can
        surface new keys yet be a duplicate spec)."""
        self.seen_keys |= coverage

    def pick(self, rng: random.Random) -> CorpusEntry:
        """Energy-weighted parent selection (deterministic under rng)."""
        if not self.entries:
            raise RuntimeError("cannot pick from an empty corpus")
        weights = [entry.energy() for entry in self.entries]
        total = sum(weights)
        point = rng.random() * total
        cumulative = 0.0
        chosen = self.entries[-1]
        for entry, weight in zip(self.entries, weights):
            cumulative += weight
            if point <= cumulative:
                chosen = entry
                break
        chosen.picked += 1
        return chosen

    def coverage_set(self) -> FrozenSet[str]:
        return frozenset(self.seen_keys)

    # -- disk form -----------------------------------------------------------

    def save(self, directory: Union[str, Path]) -> List[Path]:
        """One ``<index>_<fingerprint12>.json`` file per entry."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for index, entry in enumerate(self.entries):
            path = directory / f"{index:04d}_{entry.fingerprint[:12]}.json"
            path.write_text(json.dumps(entry.to_dict(), indent=1,
                                       sort_keys=True) + "\n")
            paths.append(path)
        return paths

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "Corpus":
        """Rebuild a corpus from a directory of entry files (sorted
        filename order preserves admission order and thus novel sets)."""
        corpus = cls()
        directory = Path(directory)
        for path in sorted(directory.glob("*.json")):
            entry = CorpusEntry.from_dict(json.loads(path.read_text()))
            if entry.fingerprint in corpus.seen_fingerprints:
                continue
            corpus.entries.append(entry)
            corpus.seen_keys |= entry.coverage
            corpus.seen_fingerprints.add(entry.fingerprint)
        return corpus
