"""Unit tests for the legacy sharding baselines."""

from collections import Counter

import pytest

from repro.baselines.consistent_hashing import ConsistentHashRing
from repro.baselines.pinned import (
    PinnedAllocator,
    modulo_placement,
    ring_placement,
)
from repro.cluster.topology import Machine
from repro.core.allocator import ServerRecord
from repro.core.shard_map import AssignmentTable, ReplicaState, Role
from repro.core.spec import AppSpec, ReplicationStrategy, uniform_shards


def _moved_fraction(place, before, after, count=10_000):
    return sum(1 for i in range(count)
               if place(i, f"s{i}", before) != place(i, f"s{i}", after)) / count


def _tasks(count):
    return [f"task{i:02d}" for i in range(count)]


class TestStaticSharding:
    """§2.2.1's taskID-modulo scheme is ``pinned.modulo_placement``."""

    def test_modulo_routing(self):
        tasks = _tasks(10)
        assert modulo_placement(0, "s0", tasks) == "task00"
        assert modulo_placement(25, "s25", tasks) == "task05"

    def test_resharding_moves_most_keys(self):
        # A co-prime resize moves ~all keys.
        assert _moved_fraction(modulo_placement, _tasks(10), _tasks(11)) > 0.8

    def test_resharding_to_multiple_moves_fewer(self):
        moved = _moved_fraction(modulo_placement, _tasks(10), _tasks(20))
        assert moved == pytest.approx(0.5, abs=0.02)

    def test_load_distribution_uniform_for_sequential_keys(self):
        tasks = _tasks(10)
        counts = Counter(modulo_placement(i, f"s{i}", tasks)
                         for i in range(1000))
        assert all(counts[task] == 100 for task in tasks)


class TestConsistentHashRing:
    def test_routing_is_stable(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        owner = ring.node_for_key(12345)
        assert ring.node_for_key(12345) == owner

    def test_all_nodes_get_keys(self):
        ring = ConsistentHashRing(["a", "b", "c"], virtual_nodes=200)
        counts = Counter(ring.node_for_key(key) for key in range(3000))
        assert all(counts[node] > 0 for node in "abc")

    def test_balance_with_virtual_nodes(self):
        ring = ConsistentHashRing(["a", "b", "c", "d"], virtual_nodes=300)
        counts = Counter(ring.node_for_key(key) for key in range(20_000))
        mean = 5000
        for node in "abcd":
            assert 0.6 * mean < counts[node] < 1.4 * mean

    def test_adding_node_moves_about_one_over_n(self):
        nodes = [f"n{i}" for i in range(10)]
        moved = _moved_fraction(ring_placement(virtual_nodes=200),
                                nodes[:9], nodes, count=20_000)
        assert moved == pytest.approx(1 / 10, abs=0.05)

    def test_removing_node_moves_only_its_keys(self):
        nodes = [f"n{i}" for i in range(10)]
        place = ring_placement(virtual_nodes=200)
        on_n0 = sum(1 for i in range(20_000)
                    if place(i, f"s{i}", nodes) == "n0")
        moved = _moved_fraction(place, nodes, nodes[1:], count=20_000)
        assert moved == on_n0 / 20_000

    def test_duplicate_add_rejected(self):
        ring = ConsistentHashRing(["a"])
        with pytest.raises(ValueError):
            ring.add_node("a")

    def test_empty_ring_raises(self):
        with pytest.raises(RuntimeError):
            ConsistentHashRing().node_for_key(1)

    def test_static_vs_consistent_on_resize(self):
        """The §2.2.1 comparison: consistent hashing's churn advantage."""
        static_moved = _moved_fraction(modulo_placement, _tasks(10),
                                       _tasks(11))
        ch_moved = _moved_fraction(ring_placement(virtual_nodes=200),
                                   _tasks(10), _tasks(11))
        assert ch_moved < static_moved / 3


def _pinned_fixture(shards=6, servers=3):
    spec = AppSpec(name="app", shards=uniform_shards(shards, shards * 10),
                   replication=ReplicationStrategy.PRIMARY_ONLY,
                   spread_levels=())
    records = {}
    for index in range(servers):
        address = f"A/app/{index}"
        records[address] = ServerRecord(
            address=address,
            machine=Machine(machine_id=f"A-m{index}", region="A",
                            datacenter="A.dc0", rack=f"A.rack{index}",
                            capacity={"shard_count": 100.0}))
    return spec, records


class TestPinnedAllocator:
    def test_emergency_creates_land_on_pins(self):
        spec, servers = _pinned_fixture()
        allocator = PinnedAllocator(spec, modulo_placement)
        plan = allocator.emergency_plan(AssignmentTable(spec), servers,
                                        now=0.0)
        addresses = sorted(servers)
        assert {c.shard_id: c.address for c in plan.creates} == {
            shard.shard_id: addresses[i % len(addresses)]
            for i, shard in enumerate(spec.shards)}

    def test_steady_state_plans_zero_moves(self):
        spec, servers = _pinned_fixture()
        allocator = PinnedAllocator(spec, modulo_placement)
        table = AssignmentTable(spec)
        addresses = sorted(servers)
        for i, shard in enumerate(spec.shards):
            table.add(shard.shard_id, addresses[i % len(addresses)],
                      Role.PRIMARY, state=ReplicaState.READY)
        plan = allocator.periodic_plan(table, servers, now=0.0,
                                       load_of=lambda r: (1.0,))
        assert plan.moves == []

    def test_drifted_shard_moved_back_to_pin(self):
        spec, servers = _pinned_fixture()
        allocator = PinnedAllocator(spec, modulo_placement)
        table = AssignmentTable(spec)
        addresses = sorted(servers)
        for i, shard in enumerate(spec.shards):
            pin = addresses[i % len(addresses)]
            # Drift shard 0 off its pin; everyone else sits on it.
            table.add(shard.shard_id, addresses[1] if i == 0 else pin,
                      Role.PRIMARY, state=ReplicaState.READY)
        plan = allocator.periodic_plan(table, servers, now=0.0,
                                       load_of=lambda r: (1.0,))
        assert len(plan.moves) == 1
        move = plan.moves[0]
        assert move.shard_id == spec.shards[0].shard_id
        assert move.to_address == addresses[0]

    def test_mid_migration_shard_left_alone(self):
        spec, servers = _pinned_fixture()
        allocator = PinnedAllocator(spec, modulo_placement)
        table = AssignmentTable(spec)
        addresses = sorted(servers)
        table.add(spec.shards[0].shard_id, addresses[1], Role.PRIMARY,
                  state=ReplicaState.PREPARING)
        plan = allocator.periodic_plan(table, servers, now=0.0,
                                       load_of=lambda r: (1.0,))
        assert plan.moves == []

    def test_ring_placement_is_membership_stable(self):
        addresses = [f"A/app/{i}" for i in range(5)]
        placement = ring_placement(virtual_nodes=100)
        pins = {i: placement(i, f"shard{i}", addresses) for i in range(40)}
        survivors = addresses[1:]  # lose one node
        moved = sum(
            1 for i in range(40)
            if pins[i] != placement(i, f"shard{i}", survivors)
            and pins[i] in survivors)
        # Only the lost node's shards move; survivors' pins are stable.
        assert moved == 0
