"""Figure 22: the §5.3 optimizations vs the unoptimized baseline.

Paper: on the 75K-shard problem, the optimized solver converges quickly,
while "without the optimization, the allocator cannot even finish in 300
seconds and the resulting solution requires 22% more shard moves."

The ablated optimizations are grouped server sampling + domain-knowledge
targeting, large-shards-first ordering, equivalence classes, priority
batching and swaps (``SearchConfig.without_optimizations()``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics.profiler import Profiler
from ..metrics.timeseries import TimeSeries
from ..solver.local_search import SearchConfig
from ..workloads.snapshots import (
    PAPER_SCALES,
    SnapshotScale,
    attach_zippydb_goals,
    scaled,
    zippydb_snapshot,
)


@dataclass
class SolverArm:
    label: str
    initial_violations: int
    final_violations: int
    solve_time: float
    moves: int
    timed_out: bool
    trace: TimeSeries
    evaluations: int = 0
    profile: Profiler = None  # per-stage solver timings (SolveResult.profile)

    @property
    def solved(self) -> bool:
        return self.final_violations == 0


@dataclass
class Fig22Result:
    optimized: SolverArm
    baseline: SolverArm

    @property
    def extra_move_fraction(self) -> float:
        """Baseline moves relative to optimized (paper: +22%)."""
        if self.optimized.moves == 0:
            return float("inf")
        return self.baseline.moves / self.optimized.moves - 1.0


def _solve(label: str, config: SearchConfig, scale: SnapshotScale,
           seed: int) -> SolverArm:
    problem = zippydb_snapshot(scale, seed=seed)
    rebalancer = attach_zippydb_goals(problem)
    initial = rebalancer.violations()
    result = rebalancer.solve(config)
    return SolverArm(
        label=label,
        initial_violations=initial,
        final_violations=rebalancer.violations(),
        solve_time=result.solve_time,
        moves=result.moves + result.swaps,
        timed_out=result.timed_out,
        trace=result.trace,
        evaluations=result.evaluations,
        profile=result.profile,
    )


def run(factor: int = 5, seed: int = 0,
        time_budget: float = 30.0) -> Fig22Result:
    scale = scaled(PAPER_SCALES, factor=factor)[0]  # the 75K-shard point
    optimized = _solve("optimized",
                       SearchConfig(time_budget=time_budget, rng_seed=seed),
                       scale, seed)
    baseline = _solve(
        "baseline",
        SearchConfig(time_budget=time_budget,
                     rng_seed=seed).without_optimizations(),
        scale, seed)
    return Fig22Result(optimized=optimized, baseline=baseline)


def format_report(result: Fig22Result) -> str:
    def row(arm: SolverArm) -> str:
        status = "timed out" if arm.timed_out else "converged"
        setup = arm.profile.seconds("setup") if arm.profile else 0.0
        return (f"  {arm.label:10s}: {arm.initial_violations:5d} -> "
                f"{arm.final_violations:4d} violations in "
                f"{arm.solve_time:6.2f}s (set-up {setup:.3f}s), "
                f"{arm.moves:6d} moves ({status})")

    lines = [
        "Figure 22 — optimized vs baseline local search",
        row(result.optimized),
        row(result.baseline),
        f"  baseline extra moves: {100 * result.extra_move_fraction:+.0f}% "
        "(paper: +22%, and baseline cannot finish in 300 s)",
    ]
    for arm in (result.optimized, result.baseline):
        if arm.profile is None:
            continue
        rate = arm.evaluations / arm.solve_time if arm.solve_time > 0 else 0.0
        lines.append("")
        lines.append(f"  profile — {arm.label} ({rate:,.0f} evaluations/s):")
        lines.append(arm.profile.format(total=arm.solve_time, indent="    "))
    return "\n".join(lines)
