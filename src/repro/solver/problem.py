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
from operator import itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple


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
    """Index-based problem state, built once, mutated by the solver.

    Built unplaced from :class:`ReplicaInfo` rows, or placed with
    :meth:`from_columns` from one column per replica field (SM's
    allocator writes those while it walks its table); both go through one
    core, :meth:`_build`, and keep neither the rows nor the names.
    """

    def __init__(self, metrics: Sequence[str], servers: Sequence[ServerInfo],
                 replicas: Sequence[ReplicaInfo]) -> None:
        # Unzip the rows, one column per ReplicaInfo field after the name.
        columns = [list(map(itemgetter(field), replicas))
                   for field in range(1, len(ReplicaInfo._fields))]
        self._build(metrics, servers, lambda index: replicas[index].name,
                    *columns, None)

    @classmethod
    def from_columns(cls, metrics: Sequence[str],
                     servers: Sequence[ServerInfo],
                     name_of: Callable[[int], str], shards: Sequence[str],
                     loads: Sequence[Tuple[float, ...]],
                     preferred_regions: Sequence[Optional[str]],
                     weights: Sequence[float], pinned: Sequence[bool],
                     assignment: Sequence[int]) -> "PlacementProblem":
        """The problem :class:`ReplicaInfo` rows holding these columns
        would build, placed at ``assignment``; ``name_of(index)`` names a
        replica in an error only."""
        problem = cls.__new__(cls)
        problem._build(metrics, servers, name_of, shards, loads,
                       preferred_regions, weights, pinned, assignment)
        return problem

    def _build(self, metrics: Sequence[str], servers: Sequence[ServerInfo],
               name_of: Callable[[int], str], shards: Sequence[str],
               loads: Sequence[Tuple[float, ...]],
               preferred_regions: Sequence[Optional[str]],
               weights: Sequence[float], pinned: Sequence[bool],
               assignment: Optional[Sequence[int]]) -> None:
        if not metrics:
            raise ValueError("at least one metric is required")
        if not servers:
            raise ValueError("at least one server is required")
        self.metrics = list(metrics)
        self.num_metrics = len(self.metrics)
        self.servers = list(servers)

        for server in self.servers:
            if len(server.capacity) != self.num_metrics:
                raise ValueError(
                    f"server {server.name}: capacity has {len(server.capacity)} "
                    f"entries, expected {self.num_metrics}")
        self.capacity: List[Tuple[float, ...]] = [s.capacity for s in self.servers]

        self.loads: List[Tuple[float, ...]] = list(loads)
        for index, size in enumerate(map(len, self.loads)):
            if size != self.num_metrics:
                raise ValueError(
                    f"replica {name_of(index)}: load has {size} "
                    f"entries, expected {self.num_metrics}")
        if any(len(column) != len(self.loads)
               for column in (shards, preferred_regions, weights, pinned)):
            raise ValueError("replica columns must have one length")
        # Shards are numbered in order of first appearance.
        shard_index: Dict[str, int] = {}
        self.shard_of: List[int] = [
            shard_index.setdefault(shard, len(shard_index)) for shard in shards]
        self.shard_names: List[str] = list(shard_index)
        self.replica_pinned: List[bool] = list(pinned)
        self.replica_pref_weight: List[float] = [
            0.0 if region is None else weight
            for region, weight in zip(preferred_regions, weights)]

        # Domain indices for spread/affinity goals.  Preferred regions are
        # included even when no live server is there (a whole-region outage
        # must not make the problem unbuildable — the preference is simply
        # unsatisfiable until the region returns).
        region_names = {s.region for s in self.servers}
        region_names.update(preferred_regions)
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
                                               for region in preferred_regions]

        # Assignment state.
        num_servers = len(self.servers)
        self.assignment: List[int] = [-1] * len(self.loads)
        self.usage: List[List[float]] = [[0.0] * self.num_metrics
                                         for _ in range(num_servers)]
        self.replicas_on: List[set] = [set() for _ in range(num_servers)]
        if assignment is not None:
            if len(assignment) != len(self.loads):
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

    def random_assignment(self, rng: random.Random) -> None:
        """Uniform random placement — Fig 21's stress-test initial state."""
        num_servers = len(self.servers)
        self.version += self._move_all(
            [rng.randrange(num_servers) for _ in self.loads])
