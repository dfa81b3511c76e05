"""Application specifications: everything SM needs to know about an app.

SM chooses the *app-key, app-sharding* abstraction (§3.1): the application
decides how its key space maps to shards (possibly uneven ranges, e.g.
``S0:[1,9], S1:[10,99], S2:[100,100000]``) and may set per-shard policies
such as a regional placement preference.  The spec below captures that,
plus §2.2's per-app dimensions (replication strategy, LB policy, drain
policy) and §4.1's global availability cap.  Every simulated app is
geo-distributed: one global pool of servers, not a full copy per region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import islice, repeat
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from ..cluster.topology import FaultDomainLevel


class ReplicationStrategy(str, Enum):
    """§2.2.3's three categories."""

    PRIMARY_ONLY = "primary_only"
    SECONDARY_ONLY = "secondary_only"
    PRIMARY_SECONDARY = "primary_secondary"


class LoadBalancePolicy(str, Enum):
    """§2.2.4's four load-balancing flavours."""

    SHARD_COUNT = "shard_count"
    SINGLE_RESOURCE = "single_resource"
    SINGLE_SYNTHETIC = "single_synthetic"
    MULTI_METRIC = "multi_metric"


class Role(str, Enum):
    """A replica's role (the table in ``shard_map`` assigns it)."""

    PRIMARY = "primary"
    SECONDARY = "secondary"


@dataclass(frozen=True)
class DrainPolicy:
    """§2.2.5: whether to proactively drain replicas before restarts.

    The dominant configuration in production drains primaries (94% by app
    count) but not secondaries (22%).
    """

    drain_primaries: bool = True
    drain_secondaries: bool = False

    def drains(self, role: Role) -> bool:
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
        # Bulk passes: an app may have 10^6 shards, so validation builds
        # lists, not an object per shard, and enters no Python frame per
        # shard.
        shards = self.shards
        if not shards:
            raise ValueError(f"app {self.name}: needs at least one shard")
        shard_ids = [shard.shard_id for shard in shards]
        if len(set(shard_ids)) != len(shard_ids):
            seen_ids = set()
            for shard_id in shard_ids:
                if shard_id in seen_ids:
                    raise ValueError(f"app {self.name}: duplicate shard "
                                     f"{shard_id}")
                seen_ids.add(shard_id)
        if self.replication is ReplicationStrategy.PRIMARY_ONLY:
            for shard in shards:
                if shard.replica_count != 1:
                    raise ValueError(
                        f"app {self.name}: primary-only shards must have "
                        f"exactly one replica (shard {shard.shard_id} has "
                        f"{shard.replica_count})")
        # Range order is (low, high): two stable sorts of the ranges
        # themselves, so no pair or position is built per shard.
        ranges = sorted([shard.key_range for shard in shards],
                        key=attrgetter("high"))
        ranges.sort(key=attrgetter("low"))
        previous = ranges[0]
        for current in islice(ranges, 1, None):
            if current.low < previous.high:
                raise ValueError(
                    f"app {self.name}: overlapping key ranges "
                    f"[{previous.low},{previous.high}) and starting at "
                    f"{current.low}")
            previous = current
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
    regions = preferred_regions or {}
    step = key_space // count
    # Shard i spans [bounds[i], bounds[i + 1]): one int per bound, shared
    # by the two shards it separates, and one C-level pass per column.
    bounds = list(range(0, count * step, step))
    bounds.append(key_space)
    return list(map(ShardSpec, [f"shard{index}" for index in range(count)],
                    map(KeyRange, bounds, islice(bounds, 1, None)),
                    repeat(replica_count), map(regions.get, range(count))))
