"""Figure 21: allocator scalability with respect to problem size.

Paper: problems of 75K/225K/375K shards on 1K/3K/5K servers built from a
ZippyDB production snapshot, starting from a random assignment; the
allocator "is able to fix all violations in all stress tests", and as the
problem grows 5x, total solving time grows 6.8x (30 s → 205 s).

The default run (``factor=5``) scales every size down 5x, preserving the
1:3:5 sweep; pass ``factor=1`` for the paper's full sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..metrics.timeseries import format_table
from ..solver.local_search import SearchConfig
from ..workloads.snapshots import (
    PAPER_SCALES,
    SnapshotScale,
    attach_zippydb_goals,
    scaled,
    zippydb_snapshot,
)


@dataclass
class ScalePoint:
    scale: SnapshotScale
    initial_violations: int
    final_violations: int
    solve_time: float
    setup_time: float
    moves: int
    evaluations: int

    @property
    def solved(self) -> bool:
        return self.final_violations == 0


@dataclass
class Fig21Result:
    points: List[ScalePoint]

    @property
    def all_solved(self) -> bool:
        return all(point.solved for point in self.points)

    @property
    def time_growth(self) -> float:
        """Solve-time ratio largest/smallest (paper: 6.8x for 5x size)."""
        return self.points[-1].solve_time / max(1e-9,
                                                self.points[0].solve_time)


#: Host-seconds guard on each solve (every point converges long before).
TIME_BUDGET = 300.0


def run(factor: int = 5, seed: int = 0) -> Fig21Result:
    points = []
    for scale in scaled(PAPER_SCALES, factor=factor):
        problem = zippydb_snapshot(scale, seed=seed)
        rebalancer = attach_zippydb_goals(problem)
        initial = rebalancer.violations()
        result = rebalancer.solve(SearchConfig(
            time_budget=TIME_BUDGET, rng_seed=seed))
        points.append(ScalePoint(
            scale=scale,
            initial_violations=initial,
            final_violations=rebalancer.violations(),
            solve_time=result.solve_time,
            setup_time=result.setup_time,
            moves=result.moves,
            evaluations=result.evaluations,
        ))
    return Fig21Result(points=points)


def format_report(result: Fig21Result) -> str:
    rows = []
    for point in result.points:
        rate = (point.evaluations / point.solve_time
                if point.solve_time > 0 else 0.0)
        rows.append((point.scale.label,
                     point.initial_violations,
                     point.final_violations,
                     f"{point.solve_time:.2f}s",
                     f"{point.setup_time:.3f}s",
                     point.moves,
                     f"{rate:,.0f}"))
    lines = [
        "Figure 21 — allocator scalability (violations fixed vs time)",
        format_table(["problem", "initial viol.", "final viol.",
                      "solve time", "of it set-up", "moves",
                      "evaluations/s"], rows),
        "",
        f"all violations fixed : {result.all_solved} (paper: yes)",
        f"time growth for 5x size: {result.time_growth:.1f}x (paper: 6.8x)",
    ]
    return "\n".join(lines)
