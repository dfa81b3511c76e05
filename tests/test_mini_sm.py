"""Unit tests for the scale-out control plane (mini-SMs, registries)."""

import random

import pytest

from repro.core.mini_sm import (
    ApplicationManager,
    ApplicationRegistry,
    Frontend,
    PartitionRegistry,
    plan_partition_footprints,
)
from repro.core.spec import AppSpec, ReplicationStrategy, uniform_shards


def big_spec(shards=100, replica_count=3):
    return AppSpec(
        name="big",
        shards=uniform_shards(shards, shards * 10,
                              replica_count=replica_count),
        replication=ReplicationStrategy.PRIMARY_SECONDARY,
    )


class TestApplicationManager:
    def test_small_app_gets_one_partition(self):
        manager = ApplicationManager(max_replicas_per_partition=1000)
        partitions = manager.partition_app(big_spec(shards=10), server_count=20)
        assert len(partitions) == 1
        assert partitions[0].server_count == 20

    def test_large_app_splits(self):
        manager = ApplicationManager(max_replicas_per_partition=100)
        partitions = manager.partition_app(big_spec(shards=100),
                                           server_count=60)
        assert len(partitions) == 3
        # Non-overlapping: every shard in exactly one partition.
        seen = set()
        for partition in partitions:
            for shard in partition.spec.shards:
                assert shard.shard_id not in seen
                seen.add(shard.shard_id)
        assert len(seen) == 100

    def test_servers_distributed_fully(self):
        manager = ApplicationManager(max_replicas_per_partition=100)
        partitions = manager.partition_app(big_spec(), server_count=61)
        assert sum(p.server_count for p in partitions) == 61

    def test_partition_replica_budget_respected(self):
        manager = ApplicationManager(max_replicas_per_partition=90)
        partitions = manager.partition_app(big_spec(shards=100),
                                           server_count=10)
        for partition in partitions:
            assert partition.replica_count <= 90

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            ApplicationManager(max_replicas_per_partition=0)


class TestPartitionRegistry:
    def test_assign_packs_least_loaded(self):
        registry = PartitionRegistry(replicas_per_mini_sm=100)
        footprints = plan_partition_footprints("app", servers=30, shards=90,
                                               max_replicas_per_partition=30)
        for footprint in footprints:
            registry.assign(footprint)
        assert len(registry.mini_sms) == 1
        assert registry.mini_sms[0].replica_count == 90

    def test_pool_grows_when_full(self):
        registry = PartitionRegistry(replicas_per_mini_sm=70)
        footprints = plan_partition_footprints("app", servers=30, shards=90,
                                               max_replicas_per_partition=30)
        for footprint in footprints:
            registry.assign(footprint)
        # Two 30-replica partitions fit in one 70-replica mini-SM; the
        # third forces a second instance.
        assert len(registry.mini_sms) == 2

    def test_lookup(self):
        registry = PartitionRegistry()
        footprint = plan_partition_footprints("app", 10, 10)[0]
        mini_sm = registry.assign(footprint)
        assert registry.lookup(footprint.partition_id) is mini_sm
        with pytest.raises(KeyError):
            registry.lookup("ghost")


class TestFootprints:
    def test_counts_conserved(self):
        footprints = plan_partition_footprints(
            "app", servers=100, shards=1000, replicas_per_shard=3,
            max_replicas_per_partition=500)
        assert sum(f.server_count for f in footprints) == 100
        assert sum(f.shard_count for f in footprints) == 1000
        assert sum(f.replica_count for f in footprints) == 3000
        for footprint in footprints:
            assert footprint.replica_count <= 500


class TestFrontend:
    def test_route_shard_to_mini_sm(self):
        manager = ApplicationManager(max_replicas_per_partition=100)
        spec = big_spec(shards=100)
        partitions = manager.partition_app(spec, server_count=30)
        app_registry = ApplicationRegistry()
        app_registry.register("big", partitions)
        partition_registry = PartitionRegistry()
        for partition in partitions:
            partition_registry.assign(partition)
        frontend = Frontend(app_registry, partition_registry)
        mini_sm = frontend.route("big", "shard50")
        assert any(
            any(s.shard_id == "shard50" for s in p.spec.shards)
            for p in mini_sm.partitions)

    def test_route_unknown(self):
        frontend = Frontend(ApplicationRegistry(), PartitionRegistry())
        with pytest.raises(KeyError):
            frontend.route("ghost", "shard0")

    def test_duplicate_app_registration(self):
        registry = ApplicationRegistry()
        registry.register("a", [])
        with pytest.raises(ValueError):
            registry.register("a", [])

    def test_route_unknown_shard(self):
        manager = ApplicationManager(max_replicas_per_partition=1000)
        partitions = manager.partition_app(big_spec(shards=10),
                                           server_count=5)
        app_registry = ApplicationRegistry()
        app_registry.register("big", partitions)
        partition_registry = PartitionRegistry()
        for partition in partitions:
            partition_registry.assign(partition)
        frontend = Frontend(app_registry, partition_registry)
        with pytest.raises(KeyError):
            frontend.route("big", "ghost")

    def test_route_index_invalidated_on_register(self):
        """The lazily built shard->partition index must not survive a
        registration (new apps — and their shards — become routable)."""
        manager = ApplicationManager(max_replicas_per_partition=1000)
        app_registry = ApplicationRegistry()
        partition_registry = PartitionRegistry()
        frontend = Frontend(app_registry, partition_registry)

        first = manager.partition_app(big_spec(shards=10), server_count=5)
        app_registry.register("big", first)
        for partition in first:
            partition_registry.assign(partition)
        assert frontend.route("big", "shard0") is not None

        spec2 = AppSpec(
            name="other",
            shards=uniform_shards(4, 40, replica_count=1),
            replication=ReplicationStrategy.PRIMARY_ONLY,
        )
        second = manager.partition_app(spec2, server_count=2)
        app_registry.register("other", second)
        mini_sm = partition_registry.assign(second[0])
        assert frontend.route("other", "shard3") is mini_sm


class TestRegistryHeapParity:
    """The heap-based assign must reproduce the old linear-scan
    bin-packing decision for decision: least-loaded instance that fits,
    first-created among ties, new instance only when none fits."""

    @staticmethod
    def _reference_assign(loads, capacity, replicas):
        candidates = [i for i, load in enumerate(loads)
                      if load + replicas <= capacity]
        if candidates:
            return min(candidates, key=lambda i: loads[i])
        return len(loads)  # grow the pool

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_linear_scan_reference(self, seed):
        rng = random.Random(seed)
        capacity = 100
        registry = PartitionRegistry(replicas_per_mini_sm=capacity)
        loads = []
        for index in range(300):
            replicas = rng.choice([1, 7, 30, 55, 100, 130])
            footprint = plan_partition_footprints(
                f"app{index}", servers=1, shards=replicas,
                max_replicas_per_partition=10**9)[0]
            expected = self._reference_assign(loads, capacity, replicas)
            target = registry.assign(footprint)
            assert registry.mini_sms.index(target) == expected
            if expected == len(loads):
                loads.append(replicas)
            else:
                loads[expected] += replicas
        assert [m.replica_count for m in registry.mini_sms] == loads

    def test_cached_counters_recount_after_direct_append(self):
        registry = PartitionRegistry(replicas_per_mini_sm=1000)
        footprints = plan_partition_footprints(
            "app", servers=10, shards=60, max_replicas_per_partition=30)
        mini_sm = registry.assign(footprints[0])
        assert mini_sm.replica_count == 30
        # Bypassing add_partition: the lazy recount must still see it.
        mini_sm.partitions.append(footprints[1])
        assert mini_sm.replica_count == 60
        assert mini_sm.server_count == 10
        assert mini_sm.shard_count == 60
