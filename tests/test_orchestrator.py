"""Unit tests for the orchestrator, migration executor and TaskController,
run against the full harness (they are meaningless without live servers)."""

import pytest

from repro.cluster.taskcontrol import MaintenanceImpact, OpKind, OpReason
from repro.core.orchestrator import OrchestratorConfig
from repro.core.shard_map import ReplicaState, Role
from repro.core.spec import (
    AppSpec,
    DrainPolicy,
    ReplicationStrategy,
    uniform_shards,
)
from repro.harness import SimCluster, deploy_app


def single_region_app(shards=8, servers=4, replication=None, **spec_kwargs):
    cluster = SimCluster.build(regions=("FRC",),
                               machines_per_region=servers + 2, seed=11)
    spec = AppSpec(
        name="app",
        shards=uniform_shards(
            shards, shards * 10,
            replica_count=1 if replication in (None,
                                               ReplicationStrategy.PRIMARY_ONLY)
            else 2),
        replication=replication or ReplicationStrategy.PRIMARY_ONLY,
        **spec_kwargs)
    app = deploy_app(cluster, spec, {"FRC": servers},
                     orchestrator_config=OrchestratorConfig(
                         failover_grace=15.0, rebalance_interval=30.0),
                     settle=60.0)
    return cluster, app


class TestInitialPlacement:
    def test_all_shards_placed_and_ready(self):
        _cluster, app = single_region_app()
        assert app.ready_fraction() == 1.0

    def test_primary_per_shard(self):
        _cluster, app = single_region_app()
        for shard in app.spec.shards:
            primary = app.orchestrator.table.primary_of(shard.shard_id)
            assert primary is not None
            assert primary.state is ReplicaState.READY

    def test_map_published(self):
        cluster, app = single_region_app()
        shard_map = cluster.discovery.latest("app")
        assert shard_map is not None
        for index in range(len(shard_map)):
            assert shard_map.primary_at(index) is not None

    def test_assignments_mirrored_to_zookeeper(self):
        cluster, app = single_region_app()
        total = 0
        for name in cluster.zookeeper.children("/sm/app/assignments"):
            total += len(cluster.zookeeper.get(f"/sm/app/assignments/{name}"))
        assert total == len(app.spec.shards)

    def test_double_start_rejected(self):
        _cluster, app = single_region_app()
        with pytest.raises(RuntimeError):
            app.orchestrator.start()


class TestFailover:
    def test_server_crash_recreates_shards_elsewhere(self):
        cluster, app = single_region_app()
        victim = app.containers[0]
        hosted_before = app.orchestrator.shards_on(victim.address)
        assert hosted_before
        cluster.twines["FRC"].fail_machine(victim.machine.machine_id)
        # session timeout (10) + failover grace (15) + execution
        cluster.run(until=cluster.engine.now + 60.0)
        assert app.ready_fraction() == 1.0
        for shard_id in hosted_before:
            replicas = app.orchestrator.table.replicas_of(shard_id)
            assert all(r.address != victim.address for r in replicas)

    def test_quick_restart_does_not_trigger_failover(self):
        cluster, app = single_region_app()
        victim = app.containers[0]
        hosted_before = set(app.orchestrator.shards_on(victim.address))
        machine_id = victim.machine.machine_id
        cluster.twines["FRC"].fail_machine(machine_id)
        cluster.run(until=cluster.engine.now + 5.0)
        cluster.twines["FRC"].repair_machine(machine_id)
        cluster.run(until=cluster.engine.now + 60.0)
        hosted_after = set(app.orchestrator.shards_on(victim.address))
        assert hosted_after == hosted_before

    def test_expect_restart_suppresses_failover(self):
        cluster, app = single_region_app()
        victim = app.containers[0]
        hosted_before = set(app.orchestrator.shards_on(victim.address))
        app.orchestrator.expect_restart(victim.address, 120.0)
        cluster.twines["FRC"].fail_machine(victim.machine.machine_id)
        cluster.run(until=cluster.engine.now + 60.0)
        # Still assigned to the (down) server: downtime was planned.
        assert set(app.orchestrator.shards_on(victim.address)) == hosted_before


class TestDrain:
    def test_drain_moves_primaries_off(self):
        cluster, app = single_region_app()
        victim = app.containers[0].address
        process = app.orchestrator.drain_address(victim)
        cluster.run(until=cluster.engine.now + 60.0)
        assert process.finished
        assert app.orchestrator.shards_on(victim) == []
        assert app.ready_fraction() == 1.0

    def test_drain_respects_policy_for_secondaries(self):
        cluster, app = single_region_app(
            replication=ReplicationStrategy.PRIMARY_SECONDARY,
            drain_policy=DrainPolicy(drain_primaries=True,
                                     drain_secondaries=False))
        victim = app.containers[0].address
        table = app.orchestrator.table
        secondaries_before = [r for r in table.on_address(victim)
                              if r.role is Role.SECONDARY]
        app.orchestrator.drain_address(victim)
        cluster.run(until=cluster.engine.now + 90.0)
        roles = {r.role for r in table.on_address(victim)}
        assert Role.PRIMARY not in roles
        if secondaries_before:
            assert Role.SECONDARY in roles

    def test_undrain_restores_placement_target(self):
        cluster, app = single_region_app()
        victim = app.containers[0].address
        app.orchestrator.drain_address(victim)
        cluster.run(until=cluster.engine.now + 60.0)
        app.orchestrator.undrain_address(victim)
        assert not app.orchestrator.servers[victim].draining


class TestLoadCollection:
    def test_loads_polled(self):
        cluster, app = single_region_app()
        client = app.client(cluster, "FRC")
        from repro.app.client import WorkloadRecorder
        recorder = WorkloadRecorder.with_bucket(10.0)
        client.run_workload(duration=30.0, rate=lambda t: 20.0,
                            key_fn=lambda rng: rng.randrange(80),
                            recorder=recorder)
        cluster.run(until=cluster.engine.now + 50.0)
        replica = app.orchestrator.table.all_replicas()[0]
        load = app.orchestrator.load_of(replica)
        assert len(load) == len(app.spec.lb_metrics)

    def test_shard_count_metric_is_constant_one(self):
        _cluster, app = single_region_app()
        replica = app.orchestrator.table.all_replicas()[0]
        assert app.orchestrator.load_of(replica) == (1.0,)


class TestTaskControllerCaps:
    def test_concurrent_ops_capped(self):
        cluster, app = single_region_app(
            servers=6, max_concurrent_container_ops=2)
        twine = cluster.twines["FRC"]
        upgrade = twine.start_rolling_upgrade("app", max_concurrent=6,
                                              restart_duration=20.0)
        max_in_flight = 0

        def watch():
            nonlocal max_in_flight
            max_in_flight = max(max_in_flight,
                                len(app.controller._in_flight))
            if not upgrade.done:
                cluster.engine.call_after(1.0, watch)

        cluster.engine.call_after(1.0, watch)
        cluster.run(until=cluster.engine.now + 900.0)
        assert upgrade.done
        assert max_in_flight <= 2

    def test_per_shard_cap_prevents_double_unavailability(self):
        """Two Twines in two regions must not take down both replicas of a
        shard at once (§4.1's marquee scenario)."""
        cluster = SimCluster.build(regions=("FRC", "PRN"),
                                   machines_per_region=4, seed=5)
        spec = AppSpec(
            name="app",
            shards=uniform_shards(4, 40, replica_count=2),
            replication=ReplicationStrategy.SECONDARY_ONLY,
            max_unavailable_replicas_per_shard=1,
            drain_policy=DrainPolicy(drain_primaries=False,
                                     drain_secondaries=False),
        )
        app = deploy_app(cluster, spec, {"FRC": 2, "PRN": 2}, settle=60.0)
        # Restart every container in both regions simultaneously.
        for region in ("FRC", "PRN"):
            twine = cluster.twines[region]
            for container in twine.job_containers("app"):
                twine.submit_op(OpKind.RESTART, container, OpReason.UPGRADE)

        table = app.orchestrator.table
        min_available = {shard.shard_id: 2 for shard in spec.shards}

        def watch():
            down = {address for address, server
                    in app.runtime.network._endpoints.items()} # addresses up
            for shard in spec.shards:
                live = sum(
                    1 for replica in table.replicas_of(shard.shard_id)
                    if replica.available
                    and cluster.network.has_endpoint(replica.address)
                    and cluster.network.endpoint(replica.address).up)
                min_available[shard.shard_id] = min(
                    min_available[shard.shard_id], live)
            if cluster.engine.now < 500.0:
                cluster.engine.call_after(1.0, watch)

        cluster.engine.call_after(1.0, watch)
        cluster.run(until=cluster.engine.now + 520.0)
        # The cap guarantees one replica of every shard stayed up.
        assert all(count >= 1 for count in min_available.values()), (
            min_available)


class TestMaintenanceNotices:
    def test_network_loss_demotes_primaries(self):
        cluster, app = single_region_app(
            replication=ReplicationStrategy.PRIMARY_SECONDARY)
        victim = app.containers[0]
        primaries_before = [r for r in app.orchestrator.table.on_address(
            victim.address) if r.role is Role.PRIMARY]
        if not primaries_before:
            pytest.skip("no primaries landed on this server")
        cluster.twines["FRC"].schedule_maintenance(
            [victim.machine.machine_id],
            start_time=cluster.engine.now + 60.0,
            end_time=cluster.engine.now + 120.0,
            impact=MaintenanceImpact.NETWORK_LOSS)
        cluster.run(until=cluster.engine.now + 50.0)
        roles = {r.role for r in app.orchestrator.table.on_address(
            victim.address)}
        assert Role.PRIMARY not in roles

    def test_machine_loss_drains_first(self):
        cluster, app = single_region_app()
        victim = app.containers[0]
        cluster.twines["FRC"].schedule_maintenance(
            [victim.machine.machine_id],
            start_time=cluster.engine.now + 90.0,
            end_time=cluster.engine.now + 150.0,
            impact=MaintenanceImpact.MACHINE_LOSS)
        cluster.run(until=cluster.engine.now + 85.0)
        assert app.orchestrator.shards_on(victim.address) == []
        assert app.ready_fraction() == 1.0
