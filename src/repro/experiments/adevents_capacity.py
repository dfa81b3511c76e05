"""§2.5's AdEvents capacity claim: regional vs geo-distributed deployment.

"Initially, they were statically sharded, used regional deployments, and
needed standby deployments in multiple regions to guard against
whole-region outages.  The standby deployments often remained
underutilized.  They were converted to primary-only SM applications,
using geo-distributed deployments.  Thanks to better load balancing,
flexible shard placement, and dynamic shard migration across regions,
SM helped reduce their machine usage by 67%."

We compute both deployments' machine counts under the same availability
requirement (survive one whole-region outage):

* **regional/static**: every region holds a *complete* copy of all
  shards (a serving copy plus enough standby copies that losing any one
  region leaves a full copy elsewhere), and static sharding cannot
  balance load — servers must be provisioned for the hottest shard
  assignment, adding imbalance headroom.
* **geo-distributed/SM**: one copy of the shards total, spread over all
  regions; after a region failure its share of shards redistributes into
  other regions' headroom, so the fleet needs only
  ``1 / (regions - 1)`` spare capacity plus the (small) LB imbalance.

The saving grows with the number of regions and with shard-load skew;
at the paper's scale it lands near the reported two-thirds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ..sim.rng import LOAD_SKEW, skewed_loads, substream

#: The pre-SM posture: one serving copy plus two standby copies in other
#: regions.
REGIONAL_COPIES = 3
SHARDS = 2_000
#: Load units one server carries at 100 % (a shard's mean load is 1), and
#: the utilization both deployments are provisioned to.
SERVER_CAPACITY = 40.0
TARGET_UTILIZATION = 0.85


@dataclass
class CapacityPlan:
    label: str
    servers_per_region: int
    regions: int

    @property
    def total_servers(self) -> int:
        return self.servers_per_region * self.regions


@dataclass
class AdEventsCapacityResult:
    regional: CapacityPlan
    geo: CapacityPlan
    shard_count: int
    balanced_servers: int  # servers needed for the full load, perfectly LB'd

    @property
    def saving(self) -> float:
        """Fraction of machines saved by converting to SM geo (paper: 67%)."""
        return 1.0 - self.geo.total_servers / self.regional.total_servers


def _servers_for_load(total_load: float) -> int:
    return max(1, math.ceil(total_load
                            / (SERVER_CAPACITY * TARGET_UTILIZATION)))


def _static_imbalance_factor(shard_loads: List[float], servers: int) -> float:
    """How much headroom static (modulo) sharding wastes: the hottest
    server's load relative to a perfectly balanced assignment."""
    if servers < 1:
        return 1.0
    buckets = [0.0] * servers
    for index, load in enumerate(shard_loads):
        buckets[index % servers] += load
    mean = sum(buckets) / servers
    return max(buckets) / mean if mean > 0 else 1.0


def run(regions: int = 5, seed: int = 0) -> AdEventsCapacityResult:
    rng = substream(seed, "adevents-capacity")
    shard_loads = skewed_loads(rng, SHARDS)
    total_load = sum(shard_loads)

    # Geo-distributed SM: one copy globally, balanced by the allocator
    # (imbalance ≈ 1 after LB), plus 1/(R-1) region-outage headroom.
    balanced_servers = _servers_for_load(total_load)
    outage_headroom = 1.0 + 1.0 / max(1, regions - 1)
    geo_total = math.ceil(balanced_servers * outage_headroom)
    geo = CapacityPlan(label="SM geo-distributed",
                       servers_per_region=-(-geo_total // regions),
                       regions=regions)

    # Regional/static: a complete copy *per region* (the pre-SM AdEvents
    # posture: serving copy + regional standbys), each copy provisioned
    # for static sharding's imbalance.
    per_copy_balanced = _servers_for_load(total_load)
    imbalance = _static_imbalance_factor(shard_loads, per_copy_balanced)
    per_copy = math.ceil(per_copy_balanced * imbalance)
    regional = CapacityPlan(label="static regional",
                            servers_per_region=per_copy,
                            regions=min(regions, REGIONAL_COPIES))

    return AdEventsCapacityResult(
        regional=regional,
        geo=geo,
        shard_count=SHARDS,
        balanced_servers=balanced_servers,
    )


def format_report(result: AdEventsCapacityResult) -> str:
    lines = [
        "AdEvents capacity (§2.5): regional/static vs SM geo-distributed",
        f"  shards                  : {result.shard_count} "
        f"(load skew {LOAD_SKEW:.0f}x)",
        f"  static regional         : {result.regional.servers_per_region} "
        f"servers x {result.regional.regions} copies = "
        f"{result.regional.total_servers}",
        f"  SM geo-distributed      : {result.geo.total_servers} total "
        f"(~{result.geo.servers_per_region}/region)",
        f"  machines saved          : {result.saving:.0%} (paper: 67%)",
    ]
    return "\n".join(lines)
