#!/usr/bin/env python
"""Coverage-guided chaos fuzzing: search, replay, distill.

Runs the :mod:`repro.chaos.fuzz` engine over the fault-action
vocabulary.  The search is deterministic — ``(seed, budget, config)``
fully decides which specs run under which run-seeds, so
``--determinism-check`` (run the whole search twice, compare the corpus
coverage-key set and every per-spec journal digest) is cheap insurance
rather than a flaky hope.

Examples::

    PYTHONPATH=src python scripts/run_fuzz.py --budget 200 --seed 42 \
        --corpus-dir fuzz_corpus --output fuzz_report.json
    PYTHONPATH=src python scripts/run_fuzz.py --budget 120 \
        --determinism-check
    PYTHONPATH=src python scripts/run_fuzz.py \
        --replay tests/fixtures/chaos_corpus/*.json
    PYTHONPATH=src python scripts/run_fuzz.py --budget 300 \
        --distill 4 --distill-dir tests/fixtures/chaos_corpus
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.chaos import SpecValidationError, load_spec  # noqa: E402
from repro.chaos.fuzz import (Corpus, CorpusEntry, FuzzConfig,  # noqa: E402
                              FuzzEngine, evaluate_spec, shrink)
from repro.obs.coverage import coverage_summary  # noqa: E402


def replay(paths, arm: str, capacity: int) -> int:
    """Re-run spec/corpus-entry files; verify recorded digests match.

    An entry that records a ``behaviour_digest`` is held to that one: it
    leaves out the engine track and record positions, so it only moves
    when the simulated system behaves differently.  Its full ``digest``
    then moving too (a substrate change: fewer events, other sampling)
    is reported as a warning.  Entries without one are held to the full
    digest, as before.
    """
    failures = 0
    for path in paths:
        spec = load_spec(path)
        data = json.loads(Path(path).read_text())
        meta = data.get("meta", {}) if isinstance(data, dict) else {}
        seed = int(meta.get("run_seed", 0))
        result = evaluate_spec(spec, arm, seed, capacity)
        pinned = "behaviour_digest" if meta.get("behaviour_digest") \
            else "digest"
        digest_ok = (not meta.get(pinned)
                     or meta[pinned] == result[pinned])
        mark = "ok " if digest_ok and not result["violations"] else "FAIL"
        print(f"{mark} {Path(path).name}: digest={result['digest'][:12]} "
              f"behaviour={result['behaviour_digest'][:12]} seed={seed} "
              f"{coverage_summary(frozenset(result['coverage']))}")
        if not digest_ok:
            failures += 1
            print(f"::error title=fuzz replay::{path}: journal {pinned} "
                  f"{result[pinned]} != recorded {meta[pinned]}")
        elif meta.get("digest") and meta["digest"] != result["digest"]:
            print(f"::warning title=fuzz replay::{path}: behaviour "
                  f"unchanged, full journal digest moved "
                  f"({result['digest']} != recorded {meta['digest']}): "
                  f"the engine executed different events")
        for violation in result["violations"]:
            failures += 1
            print(f"::error title=fuzz replay::{path}: "
                  f"{violation['invariant']}: {violation['message']}")
    return failures


def distill(engine_result, count: int, directory: Path,
            arm: str, capacity: int, shrink_evals: int) -> list:
    """Shrink the highest-novelty corpus entries to minimal specs that
    still produce their novel coverage keys, and save them as corpus
    entry files (the checked-in regression fixtures)."""
    from repro.chaos.fuzz.engine import run_seed_for  # noqa: E402

    ranked = sorted(engine_result.corpus.entries,
                    key=lambda e: (-len(e.novel), e.fingerprint))
    saved = []
    out = Corpus()
    for entry in ranked[:count]:
        target = entry.novel

        def keeps_coverage(spec) -> bool:
            result = evaluate_spec(spec, arm, entry.run_seed, capacity)
            return target <= frozenset(result["coverage"])

        minimal, _spent = shrink(entry.spec, keeps_coverage,
                                 max_evals=shrink_evals)
        from dataclasses import replace

        from repro.chaos import spec_fingerprint
        fingerprint = spec_fingerprint(minimal)
        minimal = replace(minimal, name=f"fuzz_{fingerprint[:12]}",
                          title=f"distilled coverage repro "
                                f"{fingerprint[:12]}")
        final = evaluate_spec(minimal, arm, entry.run_seed, capacity)
        if not target <= frozenset(final["coverage"]):
            print(f"::warning title=fuzz distill::{fingerprint[:12]}: "
                  f"novel keys not fully preserved after rename")
        out.entries.append(CorpusEntry(
            spec=minimal, fingerprint=fingerprint,
            run_seed=entry.run_seed, digest=final["digest"],
            behaviour_digest=final["behaviour_digest"],
            coverage=frozenset(final["coverage"]), novel=target,
            violated=frozenset(v["invariant"]
                               for v in final["violations"]),
            parent=entry.fingerprint, op="shrink"))
        saved.append(minimal)
    paths = out.save(directory)
    for path, entry in zip(paths, out.entries):
        print(f"distilled {path} ({len(entry.spec.actions)} action(s), "
              f"{len(entry.novel)} novel key(s))")
    return paths


def main() -> int:
    parser = argparse.ArgumentParser(
        description="coverage-guided chaos scenario fuzzing")
    parser.add_argument("--budget", type=int, default=200,
                        help="candidate executions (runs, not seconds — "
                             "keeps the search deterministic)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--batch", type=int, default=8,
                        help="candidates generated per round")
    parser.add_argument("--arm", default="sm", choices=["sm", "baseline"])
    parser.add_argument("--capacity", type=int, default=1 << 20)
    parser.add_argument("--processes", type=int, default=0,
                        help="pool size for batch evaluation "
                             "(0/1 = serial)")
    parser.add_argument("--corpus-dir", default=None,
                        help="save every admitted corpus entry here")
    parser.add_argument("--no-shrink", dest="shrink", action="store_false",
                        help="skip delta-debugging violating timelines")
    parser.add_argument("--shrink-evals", type=int, default=48,
                        help="max re-runs per shrink")
    parser.add_argument("--replay", nargs="*", default=None,
                        metavar="SPEC.json",
                        help="re-run spec/corpus files and verify "
                             "recorded digests instead of searching")
    parser.add_argument("--distill", type=int, default=0, metavar="N",
                        help="after the search, shrink the N highest-"
                             "novelty entries to minimal coverage repros")
    parser.add_argument("--distill-dir", default="fuzz_distilled",
                        help="where --distill writes its entries")
    parser.add_argument("--determinism-check", action="store_true",
                        help="run the search twice; fail on any "
                             "coverage-set or digest divergence")
    parser.add_argument("--output", default=None,
                        help="write the search's coverage summary "
                             "(deterministic per seed) to this path")
    args = parser.parse_args()

    if args.replay is not None:
        if not args.replay:
            parser.error("--replay needs at least one spec file")
        try:
            failures = replay(args.replay, args.arm, args.capacity)
        except (OSError, SpecValidationError) as error:
            print(f"run_fuzz.py: {error}", file=sys.stderr)
            return 2
        print(f"replayed {len(args.replay)} spec(s), "
              f"{failures} failure(s)")
        return 1 if failures else 0

    config = FuzzConfig(seed=args.seed, budget=args.budget,
                        batch=args.batch, arm=args.arm,
                        capacity=args.capacity,
                        shrink_violations=args.shrink,
                        shrink_evals=args.shrink_evals,
                        processes=args.processes)
    result = FuzzEngine(config).run()
    stats = result.stats
    keys = result.coverage_set()
    print(f"fuzz: {stats.executed} specs, corpus "
          f"{len(result.corpus)}, {coverage_summary(keys)}, "
          f"{stats.violating} violating, coverage digest "
          f"{result.coverage_digest()[:12]}")

    failures = 0
    for entry in result.violations:
        failures += 1
        print(f"::error title=fuzz violation::{entry.spec.name} "
              f"(seed {entry.run_seed}) breaks "
              f"{sorted(entry.violated)}: "
              f"{[(a.kind, a.at) for a in entry.spec.actions]}")

    if args.determinism_check:
        second = FuzzEngine(config).run()
        if second.coverage_set() != keys:
            failures += 1
            diff = sorted(second.coverage_set() ^ keys)
            print(f"::error title=fuzz determinism::coverage-key set "
                  f"diverged across identical runs: {diff}")
        mismatched = {fp: (d, second.digests().get(fp))
                      for fp, d in result.digests().items()
                      if second.digests().get(fp) != d}
        if mismatched:
            failures += 1
            print(f"::error title=fuzz determinism::journal digests "
                  f"diverged for {sorted(mismatched)[:4]}...")
        if second.coverage_set() == keys and not mismatched:
            print(f"determinism check: coverage set and all "
                  f"{len(result.digests())} digests identical across "
                  f"two searches")

    if args.corpus_dir:
        paths = result.corpus.save(args.corpus_dir)
        print(f"saved {len(paths)} corpus entries to {args.corpus_dir}")
    if result.violations and args.corpus_dir:
        viol = Corpus()
        viol.entries = list(result.violations)
        viol.save(Path(args.corpus_dir) / "violations")

    if args.distill:
        distill(result, args.distill, Path(args.distill_dir), args.arm,
                args.capacity, args.shrink_evals)

    if args.output:
        report = {
            "seed": args.seed,
            "budget": args.budget,
            "arm": args.arm,
            "specs_executed": stats.executed,
            "corpus_size": len(result.corpus),
            "distinct_coverage_keys": len(keys),
            "coverage_keys_per_100_runs": (100.0 * len(keys)
                                           / max(1, stats.executed)),
            "violations_found": stats.violating,
            "duplicates": stats.duplicates,
            "shrink_evals": stats.shrink_evals,
            "coverage_digest": result.coverage_digest(),
        }
        Path(args.output).write_text(
            json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.output}")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
