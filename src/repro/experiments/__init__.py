"""Experiment harnesses — one module per figure of the paper.

Each module exposes ``run(...) -> <Figure>Result`` and
``format_report(result) -> str``.  The benchmark suite in ``benchmarks/``
drives these and asserts the paper's shapes.
"""

from . import (
    fig17_availability,
    fig18_production_upgrades,
    fig19_geo_failover,
    fig20_appshard_dbshard,
    fig21_solver_scale,
    fig22_solver_opt,
    fig23_continuous_lb,
    skew_lb,
)

__all__ = [
    "fig17_availability",
    "fig18_production_upgrades",
    "fig19_geo_failover",
    "fig20_appshard_dbshard",
    "fig21_solver_scale",
    "fig22_solver_opt",
    "fig23_continuous_lb",
    "skew_lb",
]
