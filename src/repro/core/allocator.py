"""SM's allocator: shard placement & load balancing on the solver (§5).

Two modes, exactly as §5.1 describes:

* **emergency** — "triggered upon detecting unavailable shards ... tries
  to place unavailable shards as quickly as possible while satisfying
  hard constraints, but may temporarily deteriorate soft goals."  A fast
  greedy pass (no solver) that recreates missing replicas and primaries,
  spreading a failed server's shards over many targets (soft goal 7,
  parallel shard failover).
* **periodic** — "runs regularly, takes a longer time to optimize the
  placement of all shards."  Builds a :class:`PlacementProblem`, attaches
  the spec's constraints/goals via the ReBalancer API, runs local search
  and converts the assignment diff into migration actions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..cluster.topology import FaultDomainLevel, Machine
from ..solver.api import Rebalancer
from ..solver.local_search import OPTIMIZED, SearchConfig, SolveResult
from ..solver.problem import PlacementProblem, ServerInfo
from ..solver.specs import (
    AffinitySpec,
    BalanceSpec,
    CapacitySpec,
    DrainSpec,
    ExclusionSpec,
    Scope,
    UtilizationSpec,
)
from .shard_map import AssignmentTable, ReplicaAssignment, ReplicaState
from .spec import AppSpec, Role

_SCOPE_OF_LEVEL = {
    FaultDomainLevel.REGION: Scope.REGION,
    FaultDomainLevel.DATACENTER: Scope.DATACENTER,
    FaultDomainLevel.RACK: Scope.RACK,
    FaultDomainLevel.HOST: Scope.HOST,
}


@dataclass
class ServerRecord:
    """What the orchestrator knows about one application server."""

    address: str
    machine: Machine
    alive: bool = True
    draining: bool = False
    expected_down_until: float = 0.0
    #: The server's ``sm.report_load`` answer at the last poll tick that
    #: reached it (an ``app.server.LoadReport``; ``{}`` before the
    #: first), read as shard id -> load vector.
    shard_loads: Any = field(default_factory=dict)
    #: An ``sm.add_shard`` to it failed and it has not been heard from
    #: since (an answered load poll, a replica moved to it, a rejoin).
    unheard: bool = False

    def usable(self, now: float) -> bool:
        return self.alive and not self.draining and now >= self.expected_down_until


@dataclass(frozen=True)
class CreateReplica:
    shard_id: str
    address: str
    role: Role


@dataclass(frozen=True)
class PromoteReplica:
    shard_id: str
    replica_id: str


@dataclass(frozen=True)
class MoveReplica:
    shard_id: str
    replica_id: str
    from_address: str
    to_address: str
    role: Role


Action = object  # CreateReplica | PromoteReplica | MoveReplica


@dataclass
class AllocationPlan:
    creates: List[CreateReplica] = field(default_factory=list)
    promotes: List[PromoteReplica] = field(default_factory=list)
    moves: List[MoveReplica] = field(default_factory=list)
    solve_result: Optional[SolveResult] = None
    #: The moves continue the last solve's plan; no solve ran.
    continued: bool = False

    @property
    def empty(self) -> bool:
        return not (self.creates or self.promotes or self.moves)


LoadFn = Callable[[ReplicaAssignment], Tuple[float, ...]]
#: A move of a solved plan: the replica, its source and its target.
PlannedMove = Tuple[ReplicaAssignment, str, str]


class Allocator:
    """Builds placement decisions for one application (one partition)."""

    def __init__(self, spec: AppSpec, search_config: SearchConfig = OPTIMIZED,
                 rng: Optional[random.Random] = None,
                 max_moves_per_round: int = 64) -> None:
        self.spec = spec
        self.search_config = search_config
        self.rng = rng or random.Random(0)
        self.max_moves_per_round = max_moves_per_round
        # Kept between rounds: the last solve's input and result, the
        # unapplied tail, the last round's input, replicas and batch.
        self._solved: Optional[Tuple[tuple, SolveResult]] = None
        self._tail: List[PlannedMove] = []
        self._last: Optional[tuple] = None

    # -- emergency mode ----------------------------------------------------------

    def emergency_plan(self, table: AssignmentTable,
                       servers: Dict[str, ServerRecord],
                       now: float) -> AllocationPlan:
        """Recreate missing replicas/primaries on usable servers, fast.

        Walks only the shards the table (built from this allocator's
        spec) reports as understaffed, so the steady-state tick — nothing
        missing anywhere — costs O(1), not O(shards).
        """
        plan = AllocationPlan()
        understaffed = table.understaffed_shards()
        if not understaffed:
            return plan
        usable = [r for r in servers.values() if r.usable(now) and not r.unheard]
        if not usable:
            return plan
        # Spread new placements over many targets: least-loaded first, then
        # round-robin (soft goal 7, "parallel shard failover").
        # Secondary key on address: deterministic across processes
        # regardless of dict-insertion order.
        target_order = sorted(
            usable,
            key=lambda r: (table.hosted_count(r.address), r.address))
        placements_this_plan: Dict[str, int] = {r.address: 0 for r in usable}
        planned_addresses: Dict[str, set] = {}
        planned_regions: Dict[str, set] = {}
        cursor = 0

        def next_target(shard_id: str,
                        preferred_region: Optional[str]) -> Optional[str]:
            nonlocal cursor
            existing_addresses = {r.address for r in table.replicas_of(shard_id)}
            existing_addresses |= planned_addresses.get(shard_id, set())
            existing_regions = {servers[a].machine.region
                                for a in existing_addresses if a in servers}
            existing_regions |= planned_regions.get(shard_id, set())
            best: Optional[ServerRecord] = None
            best_key: Optional[Tuple] = None
            # The region preference is per *shard*, not per replica: once
            # one replica sits in the preferred region, the remaining
            # replicas should spread to other regions (§8.3: "one replica
            # at FRC for locality and another replica at either PRN or ODN
            # for fault tolerance").
            pref_needed = (preferred_region is not None
                           and preferred_region not in existing_regions)
            for offset in range(len(target_order)):
                record = target_order[(cursor + offset) % len(target_order)]
                if record.address in existing_addresses:
                    continue
                # Rank: unmet preferred region first, then region not
                # already hosting this shard (spread), then fewest new
                # placements (parallel failover).
                key = (
                    0 if (pref_needed
                          and record.machine.region == preferred_region) else 1,
                    0 if record.machine.region not in existing_regions else 1,
                    placements_this_plan[record.address],
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best = record
            if best is None:
                return None
            placements_this_plan[best.address] += 1
            planned_addresses.setdefault(shard_id, set()).add(best.address)
            planned_regions.setdefault(shard_id, set()).add(
                best.machine.region)
            cursor += 1
            return best.address

        for shard in understaffed:
            live = [r for r in table.replicas_view(shard.shard_id)
                    if r.state is not ReplicaState.DROPPED]
            missing = shard.replica_count - len(live)
            for _ in range(max(0, missing)):
                address = next_target(shard.shard_id, shard.preferred_region)
                if address is None:
                    break  # no capacity anywhere; the next round retries
                role = Role.SECONDARY
                plan.creates.append(CreateReplica(
                    shard_id=shard.shard_id, address=address, role=role))
            if self.spec.has_primaries():
                has_primary = any(r.role is Role.PRIMARY for r in live)
                if not has_primary:
                    ready_secondary = next(
                        (r for r in live if r.state is ReplicaState.READY), None)
                    if ready_secondary is not None:
                        plan.promotes.append(PromoteReplica(
                            shard_id=shard.shard_id,
                            replica_id=ready_secondary.replica_id))
                    elif not plan.creates or all(
                            c.shard_id != shard.shard_id for c in plan.creates):
                        address = next_target(shard.shard_id,
                                              shard.preferred_region)
                        if address is not None:
                            plan.creates.append(CreateReplica(
                                shard_id=shard.shard_id, address=address,
                                role=Role.PRIMARY))
        # Creates for shards without any live replica in a primary app
        # should bring up a primary directly.
        if self.spec.has_primaries():
            primaries_planned = set()
            for index, create in enumerate(plan.creates):
                shard_id = create.shard_id
                live = [r for r in table.replicas_of(shard_id)
                        if r.state is not ReplicaState.DROPPED]
                has_primary = any(r.role is Role.PRIMARY for r in live)
                promote_planned = any(p.shard_id == shard_id
                                      for p in plan.promotes)
                if (not has_primary and not promote_planned
                        and shard_id not in primaries_planned):
                    plan.creates[index] = CreateReplica(
                        shard_id=shard_id, address=create.address,
                        role=Role.PRIMARY)
                    primaries_planned.add(shard_id)
        return plan

    # -- periodic mode ----------------------------------------------------------------

    def build_problem(self, table: AssignmentTable,
                      servers: Dict[str, ServerRecord], now: float,
                      load_of: LoadFn) -> Tuple[PlacementProblem, List[ReplicaAssignment]]:
        """Snapshot the current state into a solver problem.

        Returns the problem plus the assignment behind each replica
        index, needed to translate the solved diff back into actions.
        """
        metrics = list(self.spec.lb_metrics)
        candidate_servers = [record for record in servers.values()
                             if record.alive and now >= record.expected_down_until]
        if not candidate_servers:
            raise RuntimeError("no alive servers to place on")
        server_infos = []
        address_to_index: Dict[str, int] = {}
        for index, record in enumerate(sorted(candidate_servers,
                                              key=lambda r: r.address)):
            machine = record.machine
            capacity = tuple(machine.capacity.get(metric, 0.0)
                             for metric in metrics)
            server_infos.append(ServerInfo(
                record.address, machine.region, capacity,
                machine.datacenter, machine.rack, record.draining))
            address_to_index[record.address] = index

        # One walk writes the solver's columns, in replica-index order.
        index_to_replica: List[ReplicaAssignment] = []
        shards: List[str] = []
        regions: List[Optional[str]] = []
        initial_assignment: List[int] = []
        ready, pending = ReplicaState.READY, ReplicaState.PENDING
        server_index_of = address_to_index.get
        replicas_view = table.replicas_view
        for shard in self.spec.shards:
            shard_id = shard.shard_id
            preferred_region = shard.preferred_region
            for replica in replicas_view(shard_id):
                state = replica.state
                if state is not ready and state is not pending:
                    continue
                server_index = server_index_of(replica.address)
                if server_index is None:
                    continue  # its server is down; emergency mode handles it
                index_to_replica.append(replica)
                shards.append(shard_id)
                regions.append(preferred_region)
                initial_assignment.append(server_index)
        if not index_to_replica:
            raise RuntimeError("no movable replicas")
        # A replica on a draining server whose role the app chose not to
        # drain stays put (pinned): it tolerates the restart.
        draining = {record.address for record in candidate_servers
                    if record.draining}
        kept_roles = {role for role in Role
                      if not self.spec.drain_policy.drains(role)}
        pinned = [r.address in draining and r.role in kept_roles
                  for r in index_to_replica]
        # Every region preference weighs 1.0.
        problem = PlacementProblem.from_columns(
            metrics, server_infos,
            lambda index: index_to_replica[index].replica_id,
            shards, list(map(load_of, index_to_replica)), regions,
            [1.0] * len(index_to_replica), pinned, initial_assignment)
        return problem, index_to_replica

    def attach_goals(self, problem: PlacementProblem) -> Rebalancer:
        """Wire the spec's requirements through the ReBalancer API (Fig 13)."""
        spec = self.spec
        rebalancer = Rebalancer(problem)
        for metric in spec.lb_metrics:
            rebalancer.add_constraint(CapacitySpec(metric=metric))
            rebalancer.add_goal(UtilizationSpec(
                metric=metric, threshold=spec.utilization_threshold))
            rebalancer.add_goal(BalanceSpec(metric=metric,
                                            band=spec.balance_band))
            if len(problem.region_names) > 1:
                rebalancer.add_goal(BalanceSpec(
                    metric=metric, scope=Scope.REGION, band=spec.balance_band,
                    priority=6))
        if any(shard.preferred_region for shard in spec.shards):
            rebalancer.add_goal(AffinitySpec())
        max_replicas = max(shard.replica_count for shard in spec.shards)
        if max_replicas > 1:
            # Invariant, not a preference: two replicas of one shard never
            # share an application server.  Priority 1 + zero initial
            # violations means the search's no-deterioration rule keeps it
            # at zero.
            rebalancer.add_goal(ExclusionSpec(scope=Scope.HOST, priority=1))
            for level in spec.spread_levels:
                rebalancer.add_goal(ExclusionSpec(scope=_SCOPE_OF_LEVEL[level]))
        if any(problem.server_draining):
            rebalancer.add_goal(DrainSpec())
        return rebalancer

    def periodic_plan(self, table: AssignmentTable,
                      servers: Dict[str, ServerRecord], now: float,
                      load_of: LoadFn) -> AllocationPlan:
        """Full optimization pass; returns moves capped for system stability
        (hard constraint 1: bounded churn per round).

        Plans once per disturbance: an input equal to the last solve's
        reuses its result (the search's RNG is seeded from the config);
        one that is the last round's advanced by the moves handed out
        then takes the kept tail's next batch, unsolved; any other solves.
        """
        plan = AllocationPlan()
        try:
            problem, index_to_replica = self.build_problem(
                table, servers, now, load_of)
        except RuntimeError:
            return plan
        # Everything a solve reads that can change between rounds: the
        # servers (draining flags and the restart filter in), the spec's
        # shards, and each replica's shard, load, pin and server.
        inputs = (problem.servers, list(self.spec.shards),
                  problem.shard_names, problem.shard_of, problem.loads,
                  problem.replica_pinned, list(problem.assignment))
        batch: List[PlannedMove] = []
        if self._solved is None or inputs != self._solved[0]:
            if self._tail and inputs == self._advanced():
                batch, tail = self._hand_out(self._tail, table, servers, now)
                plan.continued = bool(batch)
            if not batch:
                self._solved = (inputs, self.attach_goals(problem).solve(
                    self.search_config))
        if not plan.continued:
            plan.solve_result = result = self._solved[1]
            planned = [(index_to_replica[i], index_to_replica[i].address,
                        problem.servers[new].name)
                       for i, _old, new in result.changed_replicas]
            batch, tail = self._hand_out(
                [move for move in planned if move[1] != move[2]],
                table, servers, now)
        self._tail = tail
        self._last = (inputs, index_to_replica, batch) if tail else None
        plan.moves = [MoveReplica(replica.shard_id, replica.replica_id,
                                  source, target, replica.role)
                      for replica, source, target in batch]
        return plan

    def _advanced(self) -> tuple:
        """The last round's input once the moves it handed out have landed
        as the migration executor lands them: each successor joins the
        end of its shard's block, on the target."""
        (servers, shards, names, shard_of, loads, pinned,
         assignment), replicas, batch = self._last
        server_index = {server.name: i for i, server in enumerate(servers)}
        columns = replicas, loads, pinned, assignment = (
            list(replicas), list(loads), list(pinned), list(assignment))
        for replica, _source, target in batch:
            index = end = replicas.index(replica)
            while end + 1 < len(shard_of) and shard_of[end + 1] == shard_of[index]:
                end += 1
            for column in columns:
                column.insert(end, column.pop(index))
            assignment[end] = server_index[target]
        return servers, shards, names, shard_of, loads, pinned, assignment

    def _hand_out(self, planned: List[PlannedMove], table: AssignmentTable,
                  servers: Dict[str, ServerRecord], now: float
                  ) -> Tuple[List[PlannedMove], List[PlannedMove]]:
        """The next capped batch of ``planned``, and the rest to keep; a
        move whose replica left its source, or whose target is unusable
        or hosts a sibling, is dropped."""
        batch: List[PlannedMove] = []
        tail: List[PlannedMove] = []
        moves_per_server: Dict[str, int] = {}
        for position, move in enumerate(planned):
            replica, source, target = move
            record = servers.get(target)
            if (replica.state is ReplicaState.DROPPED
                    or replica.address != source
                    or record is None or not record.usable(now)
                    # Never co-locate two replicas of one shard on one server.
                    or any(r.address == target
                           for r in table.replicas_view(replica.shard_id)
                           if r is not replica)):
                continue
            if len(batch) >= self.max_moves_per_round:
                tail.extend(planned[position:])
                break
            source_count = moves_per_server.get(source, 0)
            target_count = moves_per_server.get(target, 0)
            # Hard constraint 1: cap concurrent moves per server.
            if source_count >= 4 or target_count >= 4:
                tail.append(move)
                continue
            moves_per_server[source] = source_count + 1
            moves_per_server[target] = target_count + 1
            batch.append(move)
        return batch, tail
