"""Figures 15 & 16: scale of SM applications and of mini-SMs.

Fig 15 is a scatter of (servers, shards) per application deployment; we
regenerate it from the synthetic fleet and check the published anchors
(max ≈19K servers / ≈2.6M shards; ~14% of deployments ≥ 1,000 servers).

Fig 16 partitions the same fleet across mini-SMs with the §6.1 rules
(partitions of ≤ hundreds of thousands of replicas; mini-SMs capped at
~1.5M replicas — the paper's largest runs ≈50K servers / 1.3M shards) and
plots the resulting mini-SM footprints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..core.mini_sm import PartitionRegistry, plan_partition_footprints
from ..workloads.fleet import generate_fleet, scale_scatter


@dataclass
class ScaleResult:
    app_scatter: List[Tuple[int, int]]       # Fig 15: (servers, shards)
    mini_sm_scatter: List[Tuple[int, int]]   # Fig 16: (servers, shards)
    mini_sm_count: int
    large_app_fraction: float                # deployments >= 1000 servers

    @property
    def max_app(self) -> Tuple[int, int]:
        return max(self.app_scatter, key=lambda p: p[0])

    @property
    def max_mini_sm(self) -> Tuple[int, int]:
        return max(self.mini_sm_scatter, key=lambda p: p[0])


def run(app_count: int = 500, seed: int = 0,
        max_replicas_per_partition: int = 200_000,
        replicas_per_mini_sm: int = 1_500_000) -> ScaleResult:
    apps = generate_fleet(app_count=app_count, seed=seed)
    scatter = scale_scatter(apps)
    large = sum(1 for servers, _shards in scatter if servers >= 1000)

    registry = PartitionRegistry(replicas_per_mini_sm=replicas_per_mini_sm)
    for app in apps:
        if not app.is_sm:
            continue
        replicas_per_shard = {
            "primary_only": 1,
        }.get(app.replication.value, 3)
        for footprint in plan_partition_footprints(
                app.name, app.servers, app.shards,
                replicas_per_shard=replicas_per_shard,
                max_replicas_per_partition=max_replicas_per_partition):
            registry.assign(footprint)

    mini_scatter = [(m.server_count, m.shard_count)
                    for m in registry.mini_sms]
    return ScaleResult(
        app_scatter=scatter,
        mini_sm_scatter=mini_scatter,
        mini_sm_count=len(registry.mini_sms),
        large_app_fraction=large / max(1, len(scatter)),
    )


def format_report(result: ScaleResult) -> str:
    max_servers, max_shards = result.max_app
    mini_servers, mini_shards = result.max_mini_sm
    lines = [
        "Figure 15 — scale of SM applications",
        f"  deployments            : {len(result.app_scatter)}",
        f"  largest (servers)      : {max_servers:,} servers"
        f" (paper: ~19K)",
        f"  largest (shards)       : {max(s for _x, s in result.app_scatter):,}"
        f" shards (paper: ~2.6M)",
        f"  >= 1000 servers        : {100 * result.large_app_fraction:.1f}%"
        f" (paper: 14%)",
        "",
        "Figure 16 — scale of mini-SMs",
        f"  mini-SMs               : {result.mini_sm_count}"
        f" (paper operates 139 + 48)",
        f"  largest mini-SM        : {mini_servers:,} servers /"
        f" {mini_shards:,} shards (paper: ~50K / ~1.3M)",
    ]
    return "\n".join(lines)
