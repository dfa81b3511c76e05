"""SM's scale-out global control plane (§6.1, Figure 14).

"We divide SM's control plane into multiple mini-SMs so that each mini-SM
manages a subset of servers and shards. ... We divide a large application
into non-overlapping partitions, where each partition typically comprises
thousands of servers and hundreds of thousands of shard replicas. ...
The replicas of a shard are always placed on servers that belong to the
same partition."

This module implements the registries and the partitioning/assignment
logic: the :class:`ApplicationManager` splits an app spec into partition
specs, the :class:`PartitionRegistry` bin-packs partitions onto mini-SMs,
and :class:`MiniSM` hosts any number of partitions.  The
:class:`Frontend` is the stateless global entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence

from .spec import AppSpec

#: §6.1: "each partition typically comprises thousands of servers and
#: hundreds of thousands of shard replicas".
MAX_REPLICAS_PER_PARTITION = 200_000


@dataclass
class Partition:
    """One non-overlapping slice of an application."""

    partition_id: str
    app_name: str
    spec: AppSpec               # a sub-spec containing only this slice's shards
    server_count: int = 0       # servers contributed to this partition

    @property
    def shard_count(self) -> int:
        return len(self.spec.shards)

    @property
    def replica_count(self) -> int:
        return self.spec.total_replicas()


class ApplicationManager:
    """Maps an application to one or more partitions (Figure 14).

    "An application manager usually maps an application to one partition,
    but may divide a large application into multiple partitions."
    """

    def __init__(self, max_replicas_per_partition: int
                 = MAX_REPLICAS_PER_PARTITION) -> None:
        if max_replicas_per_partition <= 0:
            raise ValueError("partition capacity must be positive")
        self.max_replicas_per_partition = max_replicas_per_partition

    def partition_app(self, spec: AppSpec,
                      server_count: int) -> List[Partition]:
        """Split by contiguous shard ranges so each partition stays under
        the replica budget; servers are split proportionally."""
        total_replicas = spec.total_replicas()
        partition_count = max(
            1, -(-total_replicas // self.max_replicas_per_partition))
        shards_sorted = sorted(spec.shards, key=lambda s: s.key_range.low)
        partitions: List[Partition] = []
        per_partition = -(-len(shards_sorted) // partition_count)
        for index in range(partition_count):
            subset = shards_sorted[index * per_partition:
                                   (index + 1) * per_partition]
            if not subset:
                continue
            partitions.append(Partition(
                partition_id=f"{spec.name}/p{index}",
                app_name=spec.name,
                spec=replace(spec, name=f"{spec.name}.p{index}",
                             shards=list(subset)),
            ))
        # Distribute servers proportionally to replica share.
        remaining = server_count
        for index, partition in enumerate(partitions):
            if index == len(partitions) - 1:
                partition.server_count = remaining
            else:
                share = round(server_count * partition.replica_count
                              / max(1, total_replicas))
                partition.server_count = share
                remaining -= share
        return partitions


@dataclass
class MiniSM:
    """One control-plane shard: manages some partitions, with running
    totals that :meth:`add_partition` keeps."""

    mini_sm_id: str
    partitions: List[Partition] = field(default_factory=list, init=False)
    server_count: int = field(default=0, init=False)
    shard_count: int = field(default=0, init=False)
    replica_count: int = field(default=0, init=False)

    def add_partition(self, partition: Partition) -> None:
        self.partitions.append(partition)
        self.server_count += partition.server_count
        self.shard_count += partition.shard_count
        self.replica_count += partition.replica_count


class PartitionRegistry:
    """Assigns partitions to mini-SMs: the least-loaded instance by
    replica count, first-created among equals, growing the pool when it
    is full.  Every mini-SM shares one capacity, so the least-loaded one
    fits whenever any one does."""

    def __init__(self, replicas_per_mini_sm: int) -> None:
        self.replicas_per_mini_sm = replicas_per_mini_sm
        self.mini_sms: List[MiniSM] = []
        self._by_partition: Dict[str, MiniSM] = {}

    def assign(self, partition: Partition) -> MiniSM:
        target = min(self.mini_sms, key=lambda m: m.replica_count,
                     default=None)
        if (target is None or target.replica_count + partition.replica_count
                > self.replicas_per_mini_sm):
            target = MiniSM(mini_sm_id=f"mini-sm-{len(self.mini_sms)}")
            self.mini_sms.append(target)
        target.add_partition(partition)
        self._by_partition[partition.partition_id] = target
        return target

    def lookup(self, partition_id: str) -> MiniSM:
        try:
            return self._by_partition[partition_id]
        except KeyError:
            raise KeyError(f"unassigned partition {partition_id!r}") from None


class ApplicationRegistry:
    """App name → its partitions (Figure 14's application registry)."""

    def __init__(self) -> None:
        self._apps: Dict[str, List[Partition]] = {}
        #: bumped on every registration; consumers (the Frontend) key
        #: derived indexes to it for O(1) invalidation checks.
        self.epoch = 0

    def register(self, app_name: str, partitions: Sequence[Partition]) -> None:
        if app_name in self._apps:
            raise ValueError(f"app {app_name!r} already registered")
        self._apps[app_name] = list(partitions)
        self.epoch += 1

    def partitions_of(self, app_name: str) -> List[Partition]:
        try:
            return list(self._apps[app_name])
        except KeyError:
            raise KeyError(f"unknown app {app_name!r}") from None


class Frontend:
    """Stateless global entry point (Figure 14): app → partition → mini-SM."""

    def __init__(self, app_registry: ApplicationRegistry,
                 partition_registry: PartitionRegistry) -> None:
        self.app_registry = app_registry
        self.partition_registry = partition_registry
        # app -> {shard_id -> partition_id}, built lazily per app and
        # dropped whenever the application registry's epoch moves (a
        # registration may add partitions for any app).
        self._shard_index: Dict[str, Dict[str, str]] = {}
        self._index_epoch = -1

    def _app_index(self, app_name: str) -> Dict[str, str]:
        if self.app_registry.epoch != self._index_epoch:
            self._shard_index.clear()
            self._index_epoch = self.app_registry.epoch
        index = self._shard_index.get(app_name)
        if index is None:
            index = {}
            for partition in self.app_registry.partitions_of(app_name):
                for shard in partition.spec.shards:
                    # setdefault: first registered partition wins, like
                    # the scan this index replaces.
                    index.setdefault(shard.shard_id, partition.partition_id)
            self._shard_index[app_name] = index
        return index

    def route(self, app_name: str, shard_id: str) -> MiniSM:
        """Which mini-SM manages this shard.

        One dict hit against a lazily built shard → partition index
        (invalidated on registration), not a scan over every partition's
        spec."""
        partition_id = self._app_index(app_name).get(shard_id)
        if partition_id is None:
            raise KeyError(
                f"{app_name}: shard {shard_id!r} not in any partition")
        return self.partition_registry.lookup(partition_id)
