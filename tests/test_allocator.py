"""Unit tests for the allocator's emergency and periodic planning."""

import random

import pytest

from repro.cluster.topology import Machine
from repro.core.allocator import Allocator, ServerRecord
from repro.core.shard_map import AssignmentTable, ReplicaState
from repro.core.spec import AppSpec, ReplicationStrategy, Role, uniform_shards
from repro.solver.local_search import SearchConfig


def machine(machine_id, region="A", capacity=None):
    return Machine(machine_id=machine_id, region=region,
                   datacenter=f"{region}.dc0", rack=f"{region}.rack0",
                   capacity=capacity or {"shard_count": 100.0})


def servers_in(regions, per_region=2):
    records = {}
    for region in regions:
        for index in range(per_region):
            address = f"{region}/app/{index}"
            records[address] = ServerRecord(
                address=address, machine=machine(f"{region}-m{index}", region))
    return records


class TestEmergencyPlan:
    def test_places_all_missing_replicas(self):
        spec = AppSpec(name="app",
                       shards=uniform_shards(6, 60, replica_count=2),
                       replication=ReplicationStrategy.SECONDARY_ONLY)
        allocator = Allocator(spec)
        table = AssignmentTable(spec)
        plan = allocator.emergency_plan(table, servers_in(["A", "B"]), now=0.0)
        assert len(plan.creates) == 12

    def test_spreads_replicas_across_regions(self):
        spec = AppSpec(name="app",
                       shards=uniform_shards(8, 80, replica_count=2),
                       replication=ReplicationStrategy.SECONDARY_ONLY)
        allocator = Allocator(spec)
        table = AssignmentTable(spec)
        servers = servers_in(["A", "B"], per_region=4)
        plan = allocator.emergency_plan(table, servers, now=0.0)
        by_shard = {}
        for create in plan.creates:
            region = servers[create.address].machine.region
            by_shard.setdefault(create.shard_id, set()).add(region)
        assert all(len(regions) == 2 for regions in by_shard.values())

    def test_honors_region_preference(self):
        spec = AppSpec(
            name="app",
            shards=uniform_shards(4, 40, preferred_regions={i: "B"
                                                            for i in range(4)}),
            replication=ReplicationStrategy.PRIMARY_ONLY)
        allocator = Allocator(spec)
        table = AssignmentTable(spec)
        servers = servers_in(["A", "B"], per_region=4)
        plan = allocator.emergency_plan(table, servers, now=0.0)
        for create in plan.creates:
            assert servers[create.address].machine.region == "B"

    def test_primary_only_creates_primaries(self):
        spec = AppSpec(name="app", shards=uniform_shards(3, 30),
                       replication=ReplicationStrategy.PRIMARY_ONLY)
        allocator = Allocator(spec)
        plan = allocator.emergency_plan(AssignmentTable(spec),
                                        servers_in(["A"]), now=0.0)
        assert all(create.role is Role.PRIMARY for create in plan.creates)

    def test_promotes_ready_secondary_when_primary_lost(self):
        spec = AppSpec(name="app",
                       shards=uniform_shards(1, 10, replica_count=2),
                       replication=ReplicationStrategy.PRIMARY_SECONDARY)
        allocator = Allocator(spec)
        table = AssignmentTable(spec)
        table.add("shard0", "A/app/0", Role.SECONDARY,
                  state=ReplicaState.READY)
        table.add("shard0", "A/app/1", Role.SECONDARY,
                  state=ReplicaState.READY)
        plan = allocator.emergency_plan(table, servers_in(["A"]), now=0.0)
        assert len(plan.promotes) == 1

    def test_skips_draining_and_dead_servers(self):
        spec = AppSpec(name="app", shards=uniform_shards(2, 20),
                       replication=ReplicationStrategy.PRIMARY_ONLY)
        allocator = Allocator(spec)
        servers = servers_in(["A"], per_region=3)
        addresses = sorted(servers)
        servers[addresses[0]].alive = False
        servers[addresses[1]].draining = True
        plan = allocator.emergency_plan(AssignmentTable(spec), servers,
                                        now=0.0)
        assert {create.address for create in plan.creates} == {addresses[2]}

    def test_expected_down_window_respected(self):
        spec = AppSpec(name="app", shards=uniform_shards(1, 10),
                       replication=ReplicationStrategy.PRIMARY_ONLY)
        allocator = Allocator(spec)
        servers = servers_in(["A"], per_region=1)
        record = next(iter(servers.values()))
        record.expected_down_until = 100.0
        assert allocator.emergency_plan(AssignmentTable(spec), servers,
                                        now=50.0).empty
        assert not allocator.emergency_plan(AssignmentTable(spec), servers,
                                            now=150.0).empty

    def test_no_duplicate_address_per_shard(self):
        spec = AppSpec(name="app",
                       shards=uniform_shards(2, 20, replica_count=3),
                       replication=ReplicationStrategy.SECONDARY_ONLY)
        allocator = Allocator(spec)
        plan = allocator.emergency_plan(AssignmentTable(spec),
                                        servers_in(["A", "B"], 3), now=0.0)
        per_shard = {}
        for create in plan.creates:
            per_shard.setdefault(create.shard_id, []).append(create.address)
        for addresses in per_shard.values():
            assert len(addresses) == len(set(addresses))


class TestPeriodicPlan:
    def _setup(self, num_servers=6, num_shards=12):
        spec = AppSpec(
            name="app", shards=uniform_shards(num_shards, num_shards * 10),
            replication=ReplicationStrategy.PRIMARY_ONLY,
            lb_metrics=("cpu",))
        allocator = Allocator(spec, SearchConfig(time_budget=5.0))
        table = AssignmentTable(spec)
        servers = {}
        for index in range(num_servers):
            address = f"A/app/{index}"
            servers[address] = ServerRecord(
                address=address,
                machine=machine(f"m{index}", capacity={"cpu": 100.0}))
        # Pile everything on server 0.
        for shard in spec.shards:
            table.add(shard.shard_id, "A/app/0", Role.PRIMARY,
                      state=ReplicaState.READY)
        return spec, allocator, table, servers

    def test_moves_off_overloaded_server(self):
        _spec, allocator, table, servers = self._setup()
        plan = allocator.periodic_plan(
            table, servers, now=0.0,
            load_of=lambda replica: (20.0,))
        assert plan.moves
        assert all(move.from_address == "A/app/0" for move in plan.moves)
        assert all(move.to_address != "A/app/0" for move in plan.moves)

    def test_no_moves_when_balanced(self):
        spec, allocator, table, servers = self._setup()
        # Redistribute evenly first.
        addresses = sorted(servers)
        for index, replica in enumerate(table.all_replicas()):
            table.relocate(replica.replica_id, addresses[index % 6])
        plan = allocator.periodic_plan(
            table, servers, now=0.0, load_of=lambda replica: (20.0,))
        assert not plan.moves

    def test_move_cap_respected(self):
        _spec, allocator, table, servers = self._setup(num_shards=40)
        allocator.max_moves_per_round = 5
        plan = allocator.periodic_plan(
            table, servers, now=0.0, load_of=lambda replica: (10.0,))
        assert len(plan.moves) <= 5

    def test_empty_when_no_servers(self):
        spec = AppSpec(name="app", shards=uniform_shards(2, 20),
                       replication=ReplicationStrategy.PRIMARY_ONLY)
        allocator = Allocator(spec)
        plan = allocator.periodic_plan(AssignmentTable(spec), {}, 0.0,
                                       lambda replica: (1.0,))
        assert plan.empty
