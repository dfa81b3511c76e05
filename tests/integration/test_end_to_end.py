"""Integration tests: whole-system scenarios across all modules."""

import pytest

from repro.app.client import WorkloadRecorder
from repro.apps.adevents import AdEventsApp, DataBus
from repro.apps.kvstore import KVStoreApp
from repro.apps.zippydb import ZippyDBApp
from repro.core.orchestrator import OrchestratorConfig
from repro.core.shard_map import Role
from repro.core.spec import (
    AppSpec,
    DrainPolicy,
    ReplicationStrategy,
    uniform_shards,
)
from repro.harness import SimCluster, deploy_app


class TestKVStoreEndToEnd:
    def test_puts_survive_shard_migration(self):
        cluster = SimCluster.build(regions=("FRC", "PRN"),
                                   machines_per_region=5, seed=21)
        spec = AppSpec(name="kv", shards=uniform_shards(10, 1000),
                       replication=ReplicationStrategy.PRIMARY_ONLY)
        kv = KVStoreApp(spec)
        app = deploy_app(cluster, spec, {"FRC": 3, "PRN": 3},
                         handler_factory=kv.handler_factory, settle=60.0)
        client = app.client(cluster, "FRC")
        for key in range(0, 1000, 97):
            client.request(key, {"op": "put", "key": key, "value": key * 2})
        cluster.run(until=cluster.engine.now + 5.0)

        # Force a migration of every shard by draining a server.
        victim = app.containers[0].address
        app.orchestrator.drain_address(victim)
        cluster.run(until=cluster.engine.now + 60.0)
        assert app.orchestrator.shards_on(victim) == []

        reads = {key: client.request(key, {"op": "get", "key": key})
                 for key in range(0, 1000, 97)}
        cluster.run(until=cluster.engine.now + 5.0)
        assert all(read.outcome.ok and read.outcome.value["value"] == k * 2
                   for k, read in reads.items())


class TestTwoAppsShareCluster:
    def test_independent_control_planes(self):
        cluster = SimCluster.build(regions=("FRC",), machines_per_region=10,
                                   seed=31)
        spec_a = AppSpec(name="alpha", shards=uniform_shards(6, 60),
                         replication=ReplicationStrategy.PRIMARY_ONLY)
        spec_b = AppSpec(name="beta", shards=uniform_shards(4, 40),
                         replication=ReplicationStrategy.PRIMARY_ONLY)
        app_a = deploy_app(cluster, spec_a, {"FRC": 4}, settle=60.0)
        app_b = deploy_app(cluster, spec_b, {"FRC": 3}, settle=60.0)
        assert app_a.ready_fraction() == 1.0
        assert app_b.ready_fraction() == 1.0
        client_a = app_a.client(cluster, "FRC")
        client_b = app_b.client(cluster, "FRC")
        pa = client_a.request(5, {"hello": "a"})
        pb = client_b.request(5, {"hello": "b"})
        cluster.run(until=cluster.engine.now + 5.0)
        assert pa.outcome.ok and pb.outcome.ok
        assert "alpha" in pa.outcome.value["served_by"]
        assert "beta" in pb.outcome.value["served_by"]


def zippydb_app():
    cluster = SimCluster.build(regions=("FRC", "PRN", "ODN"),
                               machines_per_region=4, seed=13)
    spec = AppSpec(name="z", shards=uniform_shards(2, 200,
                                                   replica_count=3),
                   replication=ReplicationStrategy.PRIMARY_SECONDARY)
    zdb = ZippyDBApp(cluster.engine, cluster.network, cluster.discovery,
                     spec)
    app = deploy_app(cluster, spec, {"FRC": 2, "PRN": 2, "ODN": 2},
                     handler_factory=zdb.handler_factory,
                     on_server_created=zdb.on_server_created,
                     orchestrator_config=OrchestratorConfig(
                         failover_grace=15.0),
                     settle=60.0)
    return cluster, app


class TestZippyDBFailoverSafety:
    def test_write_without_a_quorum_is_refused(self):
        """The Multi-Paxos leader cannot commit alone: with both
        secondaries unreachable a put fails and is not applied."""
        cluster, app = zippydb_app()
        table = app.orchestrator.table
        for replica in table.replicas_of("shard0"):
            if replica.role is not Role.PRIMARY:
                cluster.network.set_endpoint_up(replica.address, False)
        region = app.orchestrator.servers[
            table.primary_of("shard0").address].machine.region
        client = app.client(cluster, region, rpc_timeout=5.0, attempts=1)
        cluster.run(until=cluster.engine.now + 5.0)   # the map arrives
        put = client.request(5, {"op": "put", "key": 5, "value": "lost"})
        cluster.run(until=cluster.engine.now + 10.0)
        assert not put.outcome.ok
        assert "no quorum" in put.outcome.error
        read = client.request(5, {"op": "get", "key": 5})
        cluster.run(until=cluster.engine.now + 5.0)
        assert read.outcome.ok and read.outcome.value["value"] is None

    def test_acknowledged_writes_survive_primary_crash(self):
        cluster, app = zippydb_app()
        client = app.client(cluster, "PRN", rpc_timeout=5.0)
        puts = {key: client.request(key, {"op": "put", "key": key,
                                          "value": f"v{key}"})
                for key in range(0, 100, 10)}
        cluster.run(until=cluster.engine.now + 15.0)
        acked = [key for key, put in puts.items()
                 if put.outcome is not None and put.outcome.ok]
        assert len(acked) >= 8  # most writes committed

        primary = app.orchestrator.table.primary_of("shard0")
        record = app.orchestrator.servers[primary.address]
        cluster.twines[record.machine.region].fail_machine(
            record.machine.machine_id)
        cluster.run(until=cluster.engine.now + 60.0)
        new_primary = app.orchestrator.table.primary_of("shard0")
        assert new_primary is not None
        assert new_primary.address != primary.address

        reads = {key: client.request(key, {"op": "get", "key": key},
                                     prefer_primary=False)
                 for key in acked}
        cluster.run(until=cluster.engine.now + 10.0)
        for key in acked:
            assert reads[key].outcome.ok
            assert reads[key].outcome.value["value"] == f"v{key}"


class TestAdEventsEndToEnd:
    def test_view_rebuilds_after_migration(self):
        cluster = SimCluster.build(regions=("FRC",), machines_per_region=5,
                                   seed=17)
        spec = AppSpec(name="ads", shards=uniform_shards(4, 400),
                       replication=ReplicationStrategy.PRIMARY_ONLY)
        bus = DataBus(4)
        ads = AdEventsApp(spec, bus)
        app = deploy_app(cluster, spec, {"FRC": 3},
                         handler_factory=ads.handler_factory, settle=60.0)
        client = app.client(cluster, "FRC")
        for _ in range(5):
            client.request(10, {"op": "ingest",
                                "event": {"ad_id": 7, "clicks": 1}})
        cluster.run(until=cluster.engine.now + 5.0)

        victim = app.orchestrator.table.replicas_of("shard0")[0].address
        app.orchestrator.drain_address(victim)
        cluster.run(until=cluster.engine.now + 60.0)

        process = client.request(10, {"op": "query", "ad_id": 7})
        cluster.run(until=cluster.engine.now + 5.0)
        assert process.outcome.ok
        assert process.outcome.value["counters"]["clicks"] == 5
        assert ads.replays >= 2  # original owner + post-migration owner


class TestSecondaryOnlyRestartPacing:
    def test_minimum_replicas_always_available(self):
        """§2.2.5: SM 'can manage the pace of container restarts to ensure
        that a minimum number of secondary replicas per shard is always
        available' — even with no drains at all."""
        cluster = SimCluster.build(regions=("FRC",), machines_per_region=8,
                                   seed=23)
        spec = AppSpec(
            name="sec",
            shards=uniform_shards(8, 80, replica_count=2),
            replication=ReplicationStrategy.SECONDARY_ONLY,
            max_unavailable_replicas_per_shard=1,
            max_concurrent_container_ops=3,
            drain_policy=DrainPolicy(drain_primaries=False,
                                     drain_secondaries=False),
        )
        app = deploy_app(cluster, spec, {"FRC": 6}, settle=60.0)
        upgrade = cluster.twines["FRC"].start_rolling_upgrade(
            "sec", max_concurrent=3, restart_duration=30.0)

        worst = {shard.shard_id: 2 for shard in spec.shards}

        def watch():
            for shard in spec.shards:
                live = sum(
                    1 for replica in app.orchestrator.table.replicas_of(
                        shard.shard_id)
                    if replica.available
                    and cluster.network.has_endpoint(replica.address)
                    and cluster.network.endpoint(replica.address).up)
                worst[shard.shard_id] = min(worst[shard.shard_id], live)
            if not upgrade.done:
                cluster.engine.call_after(2.0, watch)

        cluster.engine.call_after(1.0, watch)
        cluster.run(until=cluster.engine.now + 900.0)
        assert upgrade.done
        assert all(count >= 1 for count in worst.values()), worst
