"""Placement-problem model shared by the solver and SM's allocator.

A problem is a set of *servers* (capacity vector over named metrics,
located in a fault-domain hierarchy) and a set of *replicas* (load vector,
shard membership, optional regional preference) with a current
assignment.  The solver mutates the assignment; SM's allocator translates
the result into shard-migration operations.

Internally everything is index-based (server index, replica index) with
plain Python lists — the metric vectors are tiny (2–3 entries), which
list/tuple arithmetic handles faster than an array library's row views,
so the package needs nothing outside the standard library.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple


class ServerInfo(NamedTuple):
    """Static description of one server in a placement problem."""

    name: str
    region: str
    capacity: Tuple[float, ...]
    datacenter: str = ""
    rack: str = ""
    draining: bool = False  # pending maintenance / upgrade (soft goal 3)


class ReplicaInfo(NamedTuple):
    """One assignable shard replica.

    ``pinned`` replicas contribute load but must not be moved (e.g. a
    secondary on a draining server whose app chose not to drain
    secondaries, §2.2.5).
    """

    name: str
    shard: str
    load: Tuple[float, ...]
    preferred_region: Optional[str] = None
    preference_weight: float = 1.0
    pinned: bool = False


class PlacementProblem:
    """Index-based problem state, built once, mutated by the solver."""

    def __init__(self, metrics: Sequence[str], servers: Sequence[ServerInfo],
                 replicas: Sequence[ReplicaInfo],
                 assignment: Optional[Sequence[int]] = None) -> None:
        if not metrics:
            raise ValueError("at least one metric is required")
        if not servers:
            raise ValueError("at least one server is required")
        self.metrics = list(metrics)
        self.num_metrics = len(self.metrics)
        self.servers = list(servers)
        self.replicas = list(replicas)

        for server in self.servers:
            if len(server.capacity) != self.num_metrics:
                raise ValueError(
                    f"server {server.name}: capacity has {len(server.capacity)} "
                    f"entries, expected {self.num_metrics}")
        self.capacity: List[Tuple[float, ...]] = [s.capacity for s in self.servers]

        # One pass over the replicas fills every per-replica column;
        # preferred regions become indices once the region index exists.
        self.loads: List[Tuple[float, ...]] = []
        self.shard_of: List[int] = []
        self.shard_names: List[str] = []
        self.replica_pinned: List[bool] = []
        self.replica_pref_weight: List[float] = []
        shard_index: Dict[str, int] = {}
        pref_regions: List[Optional[str]] = []
        for replica in self.replicas:
            load = replica.load
            if len(load) != self.num_metrics:
                raise ValueError(
                    f"replica {replica.name}: load has {len(load)} "
                    f"entries, expected {self.num_metrics}")
            self.loads.append(load)
            index = shard_index.get(replica.shard)
            if index is None:
                index = shard_index[replica.shard] = len(self.shard_names)
                self.shard_names.append(replica.shard)
            self.shard_of.append(index)
            self.replica_pinned.append(replica.pinned)
            region = replica.preferred_region
            pref_regions.append(region)
            self.replica_pref_weight.append(
                0.0 if region is None else replica.preference_weight)

        # Domain indices for spread/affinity goals.  Preferred regions are
        # included even when no live server is there (a whole-region outage
        # must not make the problem unbuildable — the preference is simply
        # unsatisfiable until the region returns).
        region_names = {s.region for s in self.servers}
        region_names.update(pref_regions)
        region_names.discard(None)
        self.region_names = sorted(region_names)
        self._region_index = {name: i for i, name in enumerate(self.region_names)}
        self.server_region: List[int] = [self._region_index[s.region]
                                         for s in self.servers]
        self.dc_names = sorted({s.datacenter for s in self.servers})
        self._dc_index = {name: i for i, name in enumerate(self.dc_names)}
        self.server_dc: List[int] = [self._dc_index[s.datacenter]
                                     for s in self.servers]
        self.rack_names = sorted({s.rack for s in self.servers})
        self._rack_index = {name: i for i, name in enumerate(self.rack_names)}
        self.server_rack: List[int] = [self._rack_index[s.rack]
                                       for s in self.servers]
        self.server_draining: List[bool] = [s.draining for s in self.servers]
        # -1: the replica has no preferred region.
        pref_index = {None: -1, **self._region_index}
        self.replica_pref_region: List[int] = [pref_index[region]
                                               for region in pref_regions]

        # Assignment state.
        num_servers = len(self.servers)
        self.assignment: List[int] = [-1] * len(self.replicas)
        self.usage: List[List[float]] = [[0.0] * self.num_metrics
                                         for _ in range(num_servers)]
        self.replicas_on: List[set] = [set() for _ in range(num_servers)]
        if assignment is not None:
            if len(assignment) != len(self.replicas):
                raise ValueError("assignment length must match replica count")
            for server_idx in assignment:
                if not -1 <= server_idx < num_servers:
                    raise ValueError(f"assignment references server {server_idx}")
            self._move_all(assignment)

        # Mutation counter: bumped by every effective ``move``.  Goal
        # evaluators cache per-server costs keyed on this version so they
        # can detect assignment changes made behind their back (tests and
        # callers may call ``move`` without notifying goals) and fall back
        # to a full recount.
        self.version: int = 0
        # Lazily built per-replica cache (loads are immutable).
        self._replica_total_load: Optional[List[float]] = None

    # -- assignment mutation -------------------------------------------------

    def _add_usage(self, replica_idx: int, server_idx: int) -> None:
        load = self.loads[replica_idx]
        row = self.usage[server_idx]
        for m in range(self.num_metrics):
            row[m] += load[m]
        self.replicas_on[server_idx].add(replica_idx)

    def _remove_usage(self, replica_idx: int, server_idx: int) -> None:
        load = self.loads[replica_idx]
        row = self.usage[server_idx]
        for m in range(self.num_metrics):
            row[m] -= load[m]
        self.replicas_on[server_idx].discard(replica_idx)

    def move(self, replica_idx: int, target_server: int) -> None:
        """Reassign one replica (the solver's elementary operation)."""
        current = self.assignment[replica_idx]
        if current == target_server:
            return
        if not -1 <= target_server < len(self.servers):
            raise ValueError(f"move targets server {target_server}")
        if current != -1:
            self._remove_usage(replica_idx, current)
        self.assignment[replica_idx] = target_server
        if target_server != -1:
            self._add_usage(replica_idx, target_server)
        self.version += 1

    def _move_all(self, targets: Sequence[int]) -> int:
        """``move(i, targets[i])`` for every replica in index order without
        the two calls a replica; returns how many moved.  The caller has
        checked that every target is -1 or a server index."""
        assignment, loads = self.assignment, self.loads
        usage, replicas_on = self.usage, self.replicas_on
        metric_range = range(self.num_metrics)
        moved = 0
        for replica_idx, target in enumerate(targets):
            current = assignment[replica_idx]
            if current == target:
                continue
            if current != -1:
                self._remove_usage(replica_idx, current)
            assignment[replica_idx] = target
            if target != -1:
                load, row = loads[replica_idx], usage[target]
                for m in metric_range:
                    row[m] += load[m]
                replicas_on[target].add(replica_idx)
            moved += 1
        return moved

    # -- per-replica cache -----------------------------------------------------

    @property
    def replica_total_load(self) -> List[float]:
        """``sum(load)`` per replica, built on first use (the solver reads
        it only when it attempts a swap)."""
        if self._replica_total_load is None:
            self._replica_total_load = [sum(load) for load in self.loads]
        return self._replica_total_load

    def random_assignment(self, rng: random.Random) -> None:
        """Uniform random placement — Fig 21's stress-test initial state."""
        num_servers = len(self.servers)
        self.version += self._move_all(
            [rng.randrange(num_servers) for _ in self.replicas])
