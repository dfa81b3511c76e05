"""Unit tests for the assignment table and shard-map snapshots."""

import pytest

from repro.core.shard_map import (
    AssignmentTable,
    ReplicaState,
    Role,
)
from repro.core.spec import AppSpec, ReplicationStrategy, uniform_shards


def make_table(shards=3, replica_count=2):
    spec = AppSpec(
        name="app",
        shards=uniform_shards(shards, key_space=shards * 10,
                              replica_count=replica_count),
        replication=ReplicationStrategy.PRIMARY_SECONDARY,
    )
    return AssignmentTable(spec)


class TestMutation:
    def test_add_and_query(self):
        table = make_table()
        replica = table.add("shard0", "srv1", Role.PRIMARY,
                            state=ReplicaState.READY)
        assert table.get(replica.replica_id) is replica
        assert table.replicas_of("shard0") == [replica]
        assert table.on_address("srv1") == [replica]
        assert table.primary_of("shard0") is replica

    def test_unknown_shard_rejected(self):
        with pytest.raises(KeyError):
            make_table().add("ghost", "srv1", Role.PRIMARY)

    def test_second_primary_rejected(self):
        table = make_table()
        table.add("shard0", "a", Role.PRIMARY)
        with pytest.raises(ValueError):
            table.add("shard0", "b", Role.PRIMARY)

    def test_drop_removes_everywhere(self):
        table = make_table()
        replica = table.add("shard0", "srv1", Role.PRIMARY)
        table.drop(replica.replica_id)
        assert table.replicas_of("shard0") == []
        assert table.on_address("srv1") == []
        assert replica.state is ReplicaState.DROPPED

    def test_drop_unknown_is_noop(self):
        make_table().drop("nope")

    def test_set_role_promotion_guard(self):
        table = make_table()
        primary = table.add("shard0", "a", Role.PRIMARY)
        secondary = table.add("shard0", "b", Role.SECONDARY)
        with pytest.raises(ValueError):
            table.set_role(secondary.replica_id, Role.PRIMARY)
        table.set_role(primary.replica_id, Role.SECONDARY)
        table.set_role(secondary.replica_id, Role.PRIMARY)
        assert table.primary_of("shard0") is secondary

    def test_relocate(self):
        table = make_table()
        replica = table.add("shard0", "a", Role.PRIMARY)
        table.relocate(replica.replica_id, "b")
        assert table.on_address("a") == []
        assert table.on_address("b") == [replica]

    def test_shards_on(self):
        table = make_table()
        table.add("shard0", "a", Role.PRIMARY)
        table.add("shard1", "a", Role.PRIMARY)
        table.add("shard1", "b", Role.SECONDARY)
        assert table.shards_on("a") == ["shard0", "shard1"]


class TestAvailability:
    def test_unavailable_counts_non_ready(self):
        table = make_table()
        table.add("shard0", "a", Role.PRIMARY, state=ReplicaState.READY)
        table.add("shard0", "b", Role.SECONDARY, state=ReplicaState.PENDING)
        assert table.unavailable_count("shard0") == 1

    def test_unavailable_counts_down_addresses(self):
        table = make_table()
        table.add("shard0", "a", Role.PRIMARY, state=ReplicaState.READY)
        table.add("shard0", "b", Role.SECONDARY, state=ReplicaState.READY)
        assert table.unavailable_count("shard0", down_addresses={"b"}) == 1


class TestSnapshot:
    def test_snapshot_versions_increase(self):
        table = make_table()
        first = table.snapshot()
        second = table.snapshot()
        assert second.version == first.version + 1

    def test_snapshot_routes_only_ready(self):
        table = make_table()
        table.add("shard0", "a", Role.PRIMARY, state=ReplicaState.READY)
        table.add("shard0", "b", Role.SECONDARY, state=ReplicaState.PENDING)
        table.add("shard0", "c", Role.SECONDARY, state=ReplicaState.READY)
        entry = table.snapshot().entry("shard0")
        assert entry.primary == "a"
        assert entry.secondaries == ("c",)
        assert entry.all_addresses() == ("a", "c")

    def test_snapshot_includes_key_ranges(self):
        table = make_table(shards=2)
        snapshot = table.snapshot()
        entry0 = snapshot.entry("shard0")
        assert entry0.key_low == 0
        assert entry0.key_high == 10

    def test_unknown_entry_raises(self):
        snapshot = make_table().snapshot()
        with pytest.raises(KeyError):
            snapshot.entry("ghost")

    def test_draining_primary_leaves_map(self):
        table = make_table()
        old = table.add("shard0", "a", Role.PRIMARY, state=ReplicaState.READY)
        table.set_role(old.replica_id, Role.SECONDARY)
        table.set_state(old.replica_id, ReplicaState.DRAINING)
        new = table.add("shard0", "b", Role.PRIMARY, state=ReplicaState.READY)
        entry = table.snapshot().entry("shard0")
        assert entry.primary == "b"
        assert "a" not in entry.all_addresses()
