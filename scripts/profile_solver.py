#!/usr/bin/env python
"""Profile one parameterized solve: stage timers plus optional cProfile.

Runs the Fig 21 ZippyDB workload at a chosen scale point and prints a
``build`` stage (snapshot seconds, goal-attachment seconds and the
garbage collections the build triggered, per generation) beside the
solver's built-in per-stage profile (``SolveResult.profile``), so one
command shows the build : solve split at any ``--factor``.  With
``--cprofile`` the solve additionally runs under :mod:`cProfile` for
function-level attribution of the same run.

Examples::

    PYTHONPATH=src python scripts/profile_solver.py
    PYTHONPATH=src python scripts/profile_solver.py --factor 5 --point 2 \
        --cprofile --limit 30
    PYTHONPATH=src python scripts/profile_solver.py --baseline --json
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.solver.local_search import SearchConfig  # noqa: E402
from repro.workloads.snapshots import (  # noqa: E402
    PAPER_SCALES,
    attach_zippydb_goals,
    scaled,
    zippydb_snapshot,
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--factor", type=_positive_int, default=5,
                        help="downscale factor for the paper sizes "
                             "(default 5; 1 = full paper scale)")
    parser.add_argument("--point", type=int, default=2, choices=(0, 1, 2),
                        help="which scale point (0=75K/factor shards ... "
                             "2=375K/factor; default 2, the largest)")
    parser.add_argument("--seed", type=int, default=0,
                        help="snapshot and search rng seed (default 0)")
    parser.add_argument("--time-budget", type=float, default=300.0,
                        help="solver wall-clock budget in seconds")
    parser.add_argument("--baseline", action="store_true",
                        help="run without the §5.3 optimizations")
    parser.add_argument("--cprofile", action="store_true",
                        help="also run under cProfile and print the top "
                             "functions by cumulative time")
    parser.add_argument("--limit", type=int, default=20,
                        help="cProfile rows to print (default 20)")
    parser.add_argument("--json", action="store_true",
                        help="emit the profile snapshot as JSON instead of "
                             "the formatted table")
    args = parser.parse_args(argv)

    scale = scaled(PAPER_SCALES, factor=args.factor)[args.point]
    collections_before = [g["collections"] for g in gc.get_stats()]
    started = time.perf_counter()
    problem = zippydb_snapshot(scale, seed=args.seed)
    snapshot_done = time.perf_counter()
    rebalancer = attach_zippydb_goals(problem)
    build = {
        "snapshot_s": snapshot_done - started,
        "attach_goals_s": time.perf_counter() - snapshot_done,
        "gc_collections": [g["collections"] - before for g, before
                           in zip(gc.get_stats(), collections_before)],
    }
    config = SearchConfig(time_budget=args.time_budget, rng_seed=args.seed)
    if args.baseline:
        config = config.without_optimizations()

    initial = rebalancer.violations()
    profiler = cProfile.Profile() if args.cprofile else None
    if profiler is not None:
        profiler.enable()
    result = rebalancer.solve(config)
    if profiler is not None:
        profiler.disable()
    final = rebalancer.violations()

    if args.json:
        payload = {
            "scale": scale.label,
            "arm": "baseline" if args.baseline else "optimized",
            "initial_violations": initial,
            "final_violations": final,
            "build": build,
            "solve_time": result.solve_time,
            "setup_time": result.profile.seconds("setup"),
            "moves": result.moves,
            "swaps": result.swaps,
            "evaluations": result.evaluations,
            "evaluations_per_second": result.evaluations_per_second,
            "timed_out": result.timed_out,
            "profile": result.profile.snapshot(),
        }
        print(json.dumps(payload, indent=2))
    else:
        arm = "baseline" if args.baseline else "optimized"
        print(f"{scale.label} ({arm}, seed={args.seed})")
        print(f"  violations: {initial} -> {final}"
              f"{'' if not result.timed_out else '  [TIMED OUT]'}")
        print(f"  build: snapshot {build['snapshot_s']:.3f}s + goals "
              f"{build['attach_goals_s']:.3f}s  (gc collections gen0/1/2: "
              f"{'/'.join(map(str, build['gc_collections']))})")
        print(f"  solve time: {result.solve_time:.3f}s "
              f"(of it set-up {result.profile.seconds('setup'):.3f}s)  "
              f"moves={result.moves} swaps={result.swaps} "
              f"evaluations={result.evaluations} "
              f"({result.evaluations_per_second:,.0f}/s)")
        print("  stage profile:")
        print(result.profile.format(total=result.solve_time, indent="    "))

    if profiler is not None:
        print()
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.strip_dirs().sort_stats("cumulative").print_stats(args.limit)

    return 0 if final <= initial else 1


if __name__ == "__main__":
    raise SystemExit(main())
