"""Application specifications: everything SM needs to know about an app.

SM chooses the *app-key, app-sharding* abstraction (§3.1): the application
decides how its key space maps to shards (possibly uneven ranges, e.g.
``S0:[1,9], S1:[10,99], S2:[100,100000]``) and may set per-shard policies
such as a regional placement preference.  The spec below captures that,
plus the §2.2 demographics dimensions (replication strategy, LB policy,
drain policy) and §4.1's global availability cap.  ``DeploymentMode``
is the demographics' regional / geo-distributed split
(``repro.workloads.fleet``); every simulated app is geo-distributed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..cluster.topology import FaultDomainLevel


class ReplicationStrategy(str, Enum):
    """§2.2.3's three categories."""

    PRIMARY_ONLY = "primary_only"
    SECONDARY_ONLY = "secondary_only"
    PRIMARY_SECONDARY = "primary_secondary"


class DeploymentMode(str, Enum):
    """§2.2.2: one full copy per region vs. one global pool."""

    REGIONAL = "regional"
    GEO_DISTRIBUTED = "geo_distributed"


class LoadBalancePolicy(str, Enum):
    """§2.2.4's four load-balancing flavours."""

    SHARD_COUNT = "shard_count"
    SINGLE_RESOURCE = "single_resource"
    SINGLE_SYNTHETIC = "single_synthetic"
    MULTI_METRIC = "multi_metric"


@dataclass(frozen=True)
class DrainPolicy:
    """§2.2.5: whether to proactively drain replicas before restarts.

    The dominant configuration in production drains primaries (94% by app
    count) but not secondaries (22%).
    """

    drain_primaries: bool = True
    drain_secondaries: bool = False

    def drains(self, role: "Role") -> bool:
        from .shard_map import Role  # local import to avoid a cycle
        if role is Role.PRIMARY:
            return self.drain_primaries
        return self.drain_secondaries


@dataclass(frozen=True, slots=True)
class KeyRange:
    """A half-open application-key interval [low, high)."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if self.low >= self.high:
            raise ValueError(f"empty key range [{self.low}, {self.high})")

    def __contains__(self, key: int) -> bool:
        return self.low <= key < self.high


@dataclass(frozen=True, slots=True)
class ShardSpec:
    """One application-defined shard."""

    shard_id: str
    key_range: KeyRange
    replica_count: int = 1
    preferred_region: Optional[str] = None

    def __post_init__(self) -> None:
        if self.replica_count < 1:
            raise ValueError(
                f"shard {self.shard_id}: replica_count must be >= 1")


@dataclass
class AppSpec:
    """The complete configuration of one SM application."""

    name: str
    shards: List[ShardSpec]
    replication: ReplicationStrategy = ReplicationStrategy.PRIMARY_ONLY
    lb_policy: LoadBalancePolicy = LoadBalancePolicy.SHARD_COUNT
    lb_metrics: Tuple[str, ...] = ("shard_count",)
    drain_policy: DrainPolicy = field(default_factory=DrainPolicy)
    # §4.1's global cap "accounts for the containers and shard replicas
    # that are already unavailable due to ongoing unplanned outage"; the
    # per-shard cap is task_controller.MAX_UNAVAILABLE_REPLICAS_PER_SHARD.
    max_concurrent_container_ops: int = 6
    utilization_threshold: float = 0.9
    balance_band: float = 0.1
    spread_levels: Tuple[FaultDomainLevel, ...] = (FaultDomainLevel.REGION,)

    def __post_init__(self) -> None:
        if not self.shards:
            raise ValueError(f"app {self.name}: needs at least one shard")
        seen_ids = set()
        for shard in self.shards:
            if shard.shard_id in seen_ids:
                raise ValueError(f"app {self.name}: duplicate shard "
                                 f"{shard.shard_id}")
            seen_ids.add(shard.shard_id)
        if self.replication is ReplicationStrategy.PRIMARY_ONLY:
            for shard in self.shards:
                if shard.replica_count != 1:
                    raise ValueError(
                        f"app {self.name}: primary-only shards must have "
                        f"exactly one replica (shard {shard.shard_id} has "
                        f"{shard.replica_count})")
        ranges = sorted((s.key_range.low, s.key_range.high) for s in self.shards)
        for (lo1, hi1), (lo2, _hi2) in zip(ranges, ranges[1:]):
            if lo2 < hi1:
                raise ValueError(
                    f"app {self.name}: overlapping key ranges "
                    f"[{lo1},{hi1}) and starting at {lo2}")
        if self.max_concurrent_container_ops < 1:
            raise ValueError("global concurrent-op cap must be >= 1")

    def shard(self, shard_id: str) -> ShardSpec:
        """O(1) shard lookup by id.

        Application handlers call this once per client request (e.g. the
        queue service's ownership check), so a linear scan over thousands
        of shards dominated the server hot path.  The index is built
        lazily and keyed to the identity of ``shards``, so replacing the
        list invalidates it.
        """
        cached = self.__dict__.get("_shard_index")
        if cached is None or cached[0] is not self.shards:
            cached = (self.shards,
                      {shard.shard_id: shard for shard in self.shards})
            self.__dict__["_shard_index"] = cached
        try:
            return cached[1][shard_id]
        except KeyError:
            raise KeyError(
                f"app {self.name}: unknown shard {shard_id!r}") from None

    def total_replicas(self) -> int:
        return sum(shard.replica_count for shard in self.shards)

    def has_primaries(self) -> bool:
        return self.replication is not ReplicationStrategy.SECONDARY_ONLY


def uniform_shards(count: int, key_space: int = 1 << 32, replica_count: int = 1,
                   preferred_regions: Optional[Dict[int, str]] = None,
                   ) -> List[ShardSpec]:
    """Evenly split ``[0, key_space)`` into ``count`` shards named
    ``shard0`` … ``shard{count-1}``.

    ``preferred_regions`` optionally maps shard index → region preference
    (Fig 19's 400 "east-coast" shards prefer FRC).
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if key_space < count:
        raise ValueError("key space smaller than shard count")
    shards = []
    step = key_space // count
    for index in range(count):
        low = index * step
        high = key_space if index == count - 1 else (index + 1) * step
        preferred = (preferred_regions or {}).get(index)
        shards.append(ShardSpec(
            shard_id=f"shard{index}",
            key_range=KeyRange(low, high),
            replica_count=replica_count,
            preferred_region=preferred,
        ))
    return shards
