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

import heapq
import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence, Tuple

from .spec import AppSpec

#: §6.1: "each partition typically comprises thousands of servers and
#: hundreds of thousands of shard replicas".
MAX_REPLICAS_PER_PARTITION = 200_000
#: A mini-SM's replica budget (the paper's largest runs ≈50K servers /
#: 1.3M shards).
REPLICAS_PER_MINI_SM = 1_500_000


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


@dataclass(frozen=True)
class PartitionFootprint:
    """Partition bookkeeping without a full AppSpec.

    The Fig 16 scale experiment partitions a synthetic fleet with millions
    of shards; building real specs for those would be wasteful.  Any
    object with these four fields (including :class:`Partition`) can be
    assigned by the :class:`PartitionRegistry`.
    """

    partition_id: str
    server_count: int
    shard_count: int
    replica_count: int


def plan_partition_footprints(app_name: str, servers: int, shards: int,
                              replicas_per_shard: int = 1
                              ) -> List[PartitionFootprint]:
    """Numerically split an app into partition footprints of at most
    ``MAX_REPLICAS_PER_PARTITION`` replicas."""
    total_replicas = shards * replicas_per_shard
    partition_count = max(1, -(-total_replicas // MAX_REPLICAS_PER_PARTITION))
    footprints = []
    for index in range(partition_count):
        share = lambda total: (total // partition_count
                               + (1 if index < total % partition_count else 0))
        footprints.append(PartitionFootprint(
            partition_id=f"{app_name}/p{index}",
            server_count=share(servers),
            shard_count=share(shards),
            replica_count=share(total_replicas),
        ))
    return footprints


@dataclass
class MiniSM:
    """One control-plane shard: manages some partitions.

    The aggregate counters are cached and maintained incrementally by
    :meth:`add_partition` — the Fig 16 sweep assigns tens of thousands of
    partitions, and per-call ``sum()`` made every registry assignment
    O(partitions).  Appending to ``partitions`` directly still works (the
    cache is keyed to the list length and recounts lazily); mutating an
    already-added partition's counts in place does not, and nothing in
    the codebase does.
    """

    mini_sm_id: str
    partitions: List[Partition] = field(default_factory=list)
    _totals: Optional[Tuple[int, int, int]] = field(
        default=None, init=False, repr=False, compare=False)
    _counted: int = field(default=-1, init=False, repr=False, compare=False)

    def add_partition(self, partition: Partition) -> None:
        servers, shards, replicas = self._ensure_totals()
        self.partitions.append(partition)
        self._totals = (servers + partition.server_count,
                        shards + partition.shard_count,
                        replicas + partition.replica_count)
        self._counted = len(self.partitions)

    def _ensure_totals(self) -> Tuple[int, int, int]:
        if self._totals is None or self._counted != len(self.partitions):
            servers = shards = replicas = 0
            for partition in self.partitions:
                servers += partition.server_count
                shards += partition.shard_count
                replicas += partition.replica_count
            self._totals = (servers, shards, replicas)
            self._counted = len(self.partitions)
        return self._totals

    @property
    def server_count(self) -> int:
        return self._ensure_totals()[0]

    @property
    def shard_count(self) -> int:
        return self._ensure_totals()[1]

    @property
    def replica_count(self) -> int:
        return self._ensure_totals()[2]


class PartitionRegistry:
    """Assigns partitions to mini-SMs (least-loaded by replica count),
    growing the mini-SM pool when every one is at capacity.

    Selection runs off a lazy-deletion heap keyed by
    ``(replica_count, creation_seq)``, so each assignment is O(log n)
    instead of a full scan.  Because every mini-SM shares one capacity,
    the least-loaded instance fits whenever *any* instance fits, and the
    ``creation_seq`` tie-break is the one a ``min()`` over all instances
    applies: first-created wins among equally loaded.
    """

    def __init__(self, replicas_per_mini_sm: int = REPLICAS_PER_MINI_SM
                 ) -> None:
        self.replicas_per_mini_sm = replicas_per_mini_sm
        self.mini_sms: List[MiniSM] = []
        self._counter = itertools.count()
        self._by_partition: Dict[str, MiniSM] = {}
        # (replica_count, creation_seq, push_seq, mini_sm); an entry is
        # stale — and discarded when it surfaces — if its count no longer
        # matches the mini-SM's live count.  push_seq only breaks the
        # (count, seq) tie between a mini-SM's own duplicate entries.
        self._heap: List[Tuple[int, int, int, MiniSM]] = []
        self._pushes = itertools.count()

    def _new_mini_sm(self) -> MiniSM:
        sequence = next(self._counter)
        mini_sm = MiniSM(mini_sm_id=f"mini-sm-{sequence}")
        self.mini_sms.append(mini_sm)
        heapq.heappush(self._heap,
                       (0, sequence, next(self._pushes), mini_sm))
        return mini_sm

    def assign(self, partition: Partition) -> MiniSM:
        heap = self._heap
        while heap and heap[0][0] != heap[0][3].replica_count:
            heapq.heappop(heap)  # superseded by a fresher entry below
        if heap and (heap[0][0] + partition.replica_count
                     <= self.replicas_per_mini_sm):
            count, sequence, _push, target = heap[0]
        else:
            target = self._new_mini_sm()
            sequence = len(self.mini_sms) - 1
        target.add_partition(partition)
        heapq.heappush(heap, (target.replica_count, sequence,
                              next(self._pushes), target))
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
