"""Unit tests for application specs."""

import pytest

from repro.core.shard_map import AssignmentTable, Role
from repro.core.spec import (
    AppSpec,
    DeploymentMode,
    DrainPolicy,
    KeyRange,
    LoadBalancePolicy,
    ReplicationStrategy,
    ShardSpec,
    uniform_shards,
)


class TestKeyRange:
    def test_contains(self):
        key_range = KeyRange(10, 20)
        assert 10 in key_range
        assert 19 in key_range
        assert 20 not in key_range
        assert 9 not in key_range

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            KeyRange(5, 5)


class TestShardSpec:
    def test_replica_count_validated(self):
        with pytest.raises(ValueError):
            ShardSpec("s", KeyRange(0, 1), replica_count=0)


class TestAppSpec:
    def test_uneven_app_defined_shards(self):
        """The paper's example: S0:[1,9], S1:[10,99], S2:[100,100000]."""
        spec = AppSpec(name="uneven", shards=[
            ShardSpec("S0", KeyRange(1, 10)),
            ShardSpec("S1", KeyRange(10, 100)),
            ShardSpec("S2", KeyRange(100, 100001)),
        ])
        shard_map = AssignmentTable(spec).snapshot()
        assert [shard_map.index_for_key(key) for key in (5, 99, 100000)] == [
            0, 1, 2]

    def test_empty_shards_rejected(self):
        with pytest.raises(ValueError):
            AppSpec(name="x", shards=[])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            AppSpec(name="x", shards=[
                ShardSpec("a", KeyRange(0, 1)),
                ShardSpec("a", KeyRange(1, 2)),
            ])

    def test_overlapping_ranges_rejected(self):
        with pytest.raises(ValueError):
            AppSpec(name="x", shards=[
                ShardSpec("a", KeyRange(0, 10)),
                ShardSpec("b", KeyRange(5, 15)),
            ])

    def test_primary_only_forbids_multiple_replicas(self):
        with pytest.raises(ValueError):
            AppSpec(name="x",
                    shards=[ShardSpec("a", KeyRange(0, 1), replica_count=2)],
                    replication=ReplicationStrategy.PRIMARY_ONLY)

    def test_cap_validation(self):
        shards = [ShardSpec("a", KeyRange(0, 1))]
        with pytest.raises(ValueError):
            AppSpec(name="x", shards=shards,
                    max_concurrent_container_ops=0)

    def test_unknown_shard_raises(self):
        spec = AppSpec(name="x", shards=[ShardSpec("a", KeyRange(0, 10))])
        with pytest.raises(KeyError):
            spec.shard("b")

    def test_total_replicas(self):
        spec = AppSpec(
            name="x",
            shards=[ShardSpec("a", KeyRange(0, 1), replica_count=3),
                    ShardSpec("b", KeyRange(1, 2), replica_count=2)],
            replication=ReplicationStrategy.PRIMARY_SECONDARY)
        assert spec.total_replicas() == 5

    def test_has_primaries(self):
        shards = [ShardSpec("a", KeyRange(0, 1))]
        assert AppSpec(name="x", shards=shards).has_primaries()
        assert not AppSpec(
            name="x", shards=shards,
            replication=ReplicationStrategy.SECONDARY_ONLY).has_primaries()


class TestDrainPolicy:
    def test_default_drains_primaries_only(self):
        policy = DrainPolicy()
        assert policy.drains(Role.PRIMARY)
        assert not policy.drains(Role.SECONDARY)

    def test_full_drain(self):
        policy = DrainPolicy(drain_primaries=True, drain_secondaries=True)
        assert policy.drains(Role.SECONDARY)


class TestUniformShards:
    def test_covers_key_space(self):
        shards = uniform_shards(7, key_space=100)
        assert shards[0].key_range.low == 0
        assert shards[-1].key_range.high == 100
        covered = sum(s.key_range.high - s.key_range.low for s in shards)
        assert covered == 100

    def test_every_key_has_exactly_one_shard(self):
        shards = uniform_shards(7, key_space=100)
        shard_map = AssignmentTable(AppSpec(name="x", shards=shards)).snapshot()
        for key in range(100):
            assert key in shards[shard_map.index_for_key(key)].key_range

    def test_preferred_regions(self):
        shards = uniform_shards(4, key_space=40,
                                preferred_regions={0: "FRC", 2: "PRN"})
        assert shards[0].preferred_region == "FRC"
        assert shards[1].preferred_region is None
        assert shards[2].preferred_region == "PRN"

    def test_replica_count_applied(self):
        shards = uniform_shards(3, key_space=30, replica_count=3)
        assert all(s.replica_count == 3 for s in shards)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            uniform_shards(0)
        with pytest.raises(ValueError):
            uniform_shards(10, key_space=5)
