"""Figures 4–9: demographics of sharded applications.

The paper's numbers come from surveying Facebook's production fleet.  We
regenerate each chart from a synthetic application population and verify
the sampled marginals converge to the published ones — validating the
fleet generator that other experiments (Figs 15/16) build on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..metrics.timeseries import format_table
from ..workloads import fleet as fleet_mod
from ..workloads.fleet import (
    Breakdown,
    DRAIN_PRIMARIES_BY_APP,
    DRAIN_SECONDARIES_BY_APP,
    GEO_DISTRIBUTED_BY_APP,
    LB_POLICY_BY_APP,
    REPLICATION_BY_APP,
    SHARDING_SCHEME_BY_APP,
    STORAGE_BY_APP,
    generate_fleet,
)
from .common import compare_breakdown, max_abs_error, percent


@dataclass
class DemographicsResult:
    app_count: int
    scheme: Breakdown                      # Fig 4
    deployment: Breakdown                  # Fig 5
    replication: Breakdown                 # Fig 6
    lb_policy: Breakdown                   # Fig 7
    drain: Dict[str, Breakdown]            # Fig 8
    storage: Breakdown                     # Fig 9

    def published_by_app(self) -> Dict[str, Dict[str, float]]:
        return {
            "scheme": dict(SHARDING_SCHEME_BY_APP),
            "deployment": {"geo_distributed": GEO_DISTRIBUTED_BY_APP,
                           "regional": 1.0 - GEO_DISTRIBUTED_BY_APP},
            "replication": {k.value: v for k, v in REPLICATION_BY_APP.items()},
            "lb_policy": {k.value: v for k, v in LB_POLICY_BY_APP.items()},
            "drain_primaries": {"drain": DRAIN_PRIMARIES_BY_APP,
                                "no_drain": 1.0 - DRAIN_PRIMARIES_BY_APP},
            "drain_secondaries": {"drain": DRAIN_SECONDARIES_BY_APP,
                                  "no_drain": 1.0 - DRAIN_SECONDARIES_BY_APP},
            "storage": {"storage": STORAGE_BY_APP,
                        "non_storage": 1.0 - STORAGE_BY_APP},
        }

    def measured_by_app(self) -> Dict[str, Dict[str, float]]:
        return {
            "scheme": self.scheme.by_app,
            "deployment": self.deployment.by_app,
            "replication": self.replication.by_app,
            "lb_policy": self.lb_policy.by_app,
            "drain_primaries": self.drain["primaries"].by_app,
            "drain_secondaries": self.drain["secondaries"].by_app,
            "storage": self.storage.by_app,
        }

    def worst_error(self) -> float:
        published = self.published_by_app()
        measured = self.measured_by_app()
        return max(max_abs_error(measured[name], published[name])
                   for name in published)


def run(app_count: int = 4000, seed: int = 0) -> DemographicsResult:
    apps = generate_fleet(app_count=app_count, seed=seed)
    return DemographicsResult(
        app_count=app_count,
        scheme=fleet_mod.scheme_breakdown(apps),
        deployment=fleet_mod.deployment_breakdown(apps),
        replication=fleet_mod.replication_breakdown(apps),
        lb_policy=fleet_mod.lb_policy_breakdown(apps),
        drain=fleet_mod.drain_breakdown(apps),
        storage=fleet_mod.storage_breakdown(apps),
    )


def format_report(result: DemographicsResult) -> str:
    published = result.published_by_app()
    measured = result.measured_by_app()
    figures = [
        ("scheme", "Figure 4 — sharding schemes (by #application)"),
        ("deployment", "Figure 5 — deployment modes (SM apps)"),
        ("replication", "Figure 6 — replication strategies (SM apps)"),
        ("lb_policy", "Figure 7 — load-balancing policies (SM apps)"),
        ("drain_primaries", "Figure 8a — drain policy, primary replicas"),
        ("drain_secondaries", "Figure 8b — drain policy, secondary replicas"),
        ("storage", "Figure 9 — storage machine usage (SM apps)"),
    ]
    lines: List[str] = [f"Demographics over {result.app_count} synthetic apps"]
    for name, title in figures:
        lines.append("")
        lines.append(title)
        rows = compare_breakdown(measured[name], published[name])
        lines.append(format_table(["category", "paper", "measured"], rows))
    lines.append("")
    lines.append(f"worst by-app absolute error: {percent(result.worst_error())}")
    return "\n".join(lines)
