"""Solver hot-path microbenchmark: evaluations/second and solve wall-clock.

Unlike the figure benchmarks (which assert the paper's *shape*), this one
tracks the solver's raw throughput at the Fig 21 factor=5 scale points so
perf regressions in the solver show up directly in ``bench_results.txt``.
Evaluations/s is taken over the whole solve wall, set-up included.
``test_solver_hotpath_quick`` runs a much smaller point and is the target
of ``make bench-quick``.
"""

from conftest import emit, run_once

from repro.solver.local_search import SearchConfig
from repro.workloads.snapshots import (
    PAPER_SCALES,
    attach_zippydb_goals,
    scaled,
    zippydb_snapshot,
)


def _solve_point(factor, point, seed=0, time_budget=300.0):
    scale = scaled(PAPER_SCALES, factor=factor)[point]
    problem = zippydb_snapshot(scale, seed=seed)
    rebalancer = attach_zippydb_goals(problem)
    result = rebalancer.solve(SearchConfig(time_budget=time_budget,
                                           rng_seed=seed))
    return scale, result


def _report(title, scale, result):
    lines = [
        title,
        f"  problem      : {scale.label}",
        f"  solve time   : {result.solve_time:.3f}s "
        f"({'timed out' if result.timed_out else 'converged'}; "
        f"of it set-up {result.profile.seconds('setup'):.3f}s)",
        f"  moves/swaps  : {result.moves}/{result.swaps}",
        f"  evaluations  : {result.evaluations} "
        f"({result.evaluations_per_second:,.0f}/s)",
        f"  final viol.  : {result.final_violations}",
        "  stage profile:",
        result.profile.format(total=result.solve_time, indent="    "),
    ]
    return "\n".join(lines)


def test_solver_hotpath_fig21_largest(benchmark):
    """The headline point: largest Fig 21 problem at factor=5."""
    scale, result = run_once(benchmark, _solve_point, factor=5, point=2)
    emit(_report("Solver hot path — fig21 factor=5 largest point",
                 scale, result))

    assert result.solved
    assert result.evaluations > 0
    # Regression guard, on the full solve wall (the clock starts at
    # LocalSearch construction, so set-up counts): the solver stays well
    # above this floor on any plausible hardware (seed code: ~30K/s,
    # incremental accounting: ~75K/s search-only or ~50K/s with its eager
    # set-up counted, O(touched) solver: ~200K/s on the reference
    # container).
    assert result.evaluations_per_second > 10_000
    assert result.profile.calls("setup") == 1


def test_solver_hotpath_quick(benchmark):
    """Small, seconds-fast variant for `make bench-quick`."""
    scale, result = run_once(benchmark, _solve_point, factor=25, point=1)
    emit(_report("Solver hot path — quick point (factor=25)",
                 scale, result))

    assert result.solved
    assert result.evaluations_per_second > 5_000
