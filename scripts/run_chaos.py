#!/usr/bin/env python
"""Run the chaos scenario matrix and judge it with the trace oracle.

Each (scenario, arm) cell builds its own simulated cluster, executes the
scenario's fault timeline, and replays the journal through the
TraceChecker invariants plus the scenario's expectation bounds.  By
default every cell runs TWICE and the two journal digests must be
bit-identical — the determinism contract is part of the oracle, not a
separate test.

Examples::

    PYTHONPATH=src python scripts/run_chaos.py --list
    PYTHONPATH=src python scripts/run_chaos.py --all --seed 42 --check-trace
    PYTHONPATH=src python scripts/run_chaos.py \
        --scenario crash_burst_stop zk_session_churn --arms sm --serial
    PYTHONPATH=src python scripts/run_chaos.py --all --check-trace \
        --journal-dir chaos_journals
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.chaos import (SCENARIOS, SpecValidationError,  # noqa: E402
                         all_scenarios, load_spec)
from repro.experiments import runner  # noqa: E402
from repro.obs.coverage import coverage_summary  # noqa: E402


def build_tasks(scenarios: List[str], arms: List[str], seed: int,
                repeats: int, capacity: int,
                journal_dir: str | None,
                file_specs: Dict[str, Dict[str, Any]] | None = None
                ) -> List[Dict[str, Any]]:
    tasks: List[Dict[str, Any]] = []
    for name in scenarios:
        for arm in arms:
            for attempt in range(1, repeats + 1):
                kwargs: Dict[str, Any] = {"scenario": name, "arm": arm,
                                          "seed": seed, "capacity": capacity}
                if file_specs and name in file_specs:
                    kwargs["spec"] = file_specs[name]
                if journal_dir:
                    kwargs["journal_path"] = str(
                        Path(journal_dir)
                        / f"{name}.{arm}.seed{seed}.run{attempt}.jsonl")
                tasks.append({
                    "figure": "chaos",
                    "name": f"{name}:{arm}#{attempt}",
                    "fn": "repro.experiments.runner:chaos_task",
                    "kwargs": kwargs,
                })
    return tasks


def main() -> int:
    parser = argparse.ArgumentParser(
        description="chaos scenario sweep with trace-checked invariants")
    parser.add_argument("--all", action="store_true",
                        help="run every library scenario")
    parser.add_argument("--scenario", nargs="*", default=None,
                        help="specific scenario names to run, or "
                             "@path/to/spec.json for a file-defined "
                             "scenario (bare spec or fuzz corpus entry)")
    parser.add_argument("--arms", nargs="*", default=["sm", "baseline"],
                        choices=["sm", "baseline"],
                        help="ablation arms (default: both)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--no-repeat", action="store_true",
                        help="run each cell once (skips the digest-parity "
                             "half of the oracle)")
    parser.add_argument("--capacity", type=int, default=1 << 20,
                        help="journal ring capacity per run")
    parser.add_argument("--journal-dir", default=None,
                        help="write each run's raw journal (JSONL) here")
    parser.add_argument("--processes", type=int, default=None,
                        help="pool size (default: min(tasks, cpu_count))")
    parser.add_argument("--serial", action="store_true",
                        help="run cells inline in this process")
    parser.add_argument("--output", default=None,
                        help="write the JSON report to this path")
    parser.add_argument("--check-trace", action="store_true",
                        help="fail (exit 1) on any invariant violation, "
                             "digest divergence or truncated journal")
    parser.add_argument("--list", action="store_true",
                        help="list the scenario library and exit")
    args = parser.parse_args()

    if args.list:
        for spec in all_scenarios():
            exp = spec.expectations
            bounds = []
            if exp.availability_bound is not None:
                bounds.append(f"avail<={exp.availability_bound:g}s")
            if exp.failover_bound is not None:
                bounds.append(f"failover<={exp.failover_bound:g}s")
            bounds.append(f"ready>={exp.final_ready_min:g}")
            print(f"{spec.name:36s} {spec.title}  [{', '.join(bounds)}]")
        return 0

    file_specs: Dict[str, Dict[str, Any]] = {}
    if args.all:
        scenarios = [spec.name for spec in all_scenarios()]
    elif args.scenario:
        scenarios = []
        for name in args.scenario:
            if name.startswith("@"):
                try:
                    spec = load_spec(name[1:])
                except (OSError, SpecValidationError) as error:
                    print(f"run_chaos.py: {error}", file=sys.stderr)
                    return 2
                file_specs[spec.name] = spec.to_dict()
                scenarios.append(spec.name)
            elif name in SCENARIOS:
                scenarios.append(name)
            else:
                parser.error(f"unknown scenario: {name!r} "
                             f"(known: {sorted(SCENARIOS)}; or pass "
                             f"@file.json)")
    else:
        parser.error("pick scenarios: --all or --scenario NAME [NAME ...]")

    if args.journal_dir:
        Path(args.journal_dir).mkdir(parents=True, exist_ok=True)

    repeats = 1 if args.no_repeat else 2
    tasks = build_tasks(scenarios, args.arms, args.seed, repeats,
                        args.capacity, args.journal_dir,
                        file_specs=file_specs)
    report = runner.run_experiments(
        tasks, processes=args.processes, serial=args.serial)

    cells = report["figures"]["chaos"]
    failures = 0
    for name in scenarios:
        for arm in args.arms:
            headlines = [cells[f"{name}:{arm}#{attempt}"]
                         for attempt in range(1, repeats + 1)]
            digests = {h["digest"] for h in headlines}
            violations = [v for h in headlines for v in h["violations"]]
            dropped = max(h["dropped"] for h in headlines)
            ok = len(digests) == 1 and not violations and not dropped
            mark = "ok " if ok else "FAIL"
            first = headlines[0]
            print(f"{mark} {name:36s} {arm:8s} "
                  f"digest={sorted(digests)[0][:12]} "
                  f"faults={first['faults']} recovers={first['recovers']} "
                  f"ready={first['ready_fraction']:.2f} "
                  f"violations={len(violations)}")
            print(f"     coverage: "
                  f"{coverage_summary(frozenset(first.get('coverage', ())))}")
            if len(digests) > 1:
                failures += 1
                print(f"::error title=chaos determinism::{name}:{arm} "
                      f"journal digests diverged across repeats: "
                      f"{sorted(digests)}")
            for violation in violations:
                failures += 1
                print(f"::error title=chaos invariant::{name}:{arm} "
                      f"{violation['invariant']}: {violation['message']}")
            if dropped:
                failures += 1
                print(f"::error title=chaos journal::{name}:{arm} journal "
                      f"dropped {dropped} of {first['records']} records at "
                      f"--capacity {args.capacity}: the invariants above "
                      f"were checked on a truncated trace")

    if args.output:
        Path(args.output).write_text(
            json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    total = len(scenarios) * len(args.arms)
    print(f"{total} scenario cells x{repeats}, {failures} failure(s)")
    if args.check_trace and failures:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
