"""Unit tests for the orchestrator, migration executor and TaskController,
run against the full harness (they are meaningless without live servers)."""

import random

import pytest

from repro.cluster.taskcontrol import MaintenanceImpact, OpKind, OpReason
from repro.core.orchestrator import OrchestratorConfig
from repro.core.shard_map import ReplicaState
from repro.core.spec import (
    AppSpec,
    DrainPolicy,
    ReplicationStrategy,
    Role,
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
        hosted_before = app.orchestrator.table.shards_on(victim.address)
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
        hosted_before = app.orchestrator.table.shards_on(victim.address)
        machine_id = victim.machine.machine_id
        cluster.twines["FRC"].fail_machine(machine_id)
        cluster.run(until=cluster.engine.now + 5.0)
        cluster.twines["FRC"].repair_machine(machine_id)
        cluster.run(until=cluster.engine.now + 60.0)
        hosted_after = app.orchestrator.table.shards_on(victim.address)
        assert hosted_after == hosted_before

    def test_expect_restart_suppresses_failover(self):
        cluster, app = single_region_app()
        victim = app.containers[0]
        hosted_before = app.orchestrator.table.shards_on(victim.address)
        app.orchestrator.expect_restart(victim.address, 120.0)
        cluster.twines["FRC"].fail_machine(victim.machine.machine_id)
        cluster.run(until=cluster.engine.now + 60.0)
        # Still assigned to the (down) server: downtime was planned.
        assert app.orchestrator.table.shards_on(victim.address) == hosted_before


class TestDrain:
    def test_drain_moves_primaries_off(self):
        cluster, app = single_region_app()
        victim = app.containers[0].address
        process = app.orchestrator.drain_address(victim)
        cluster.run(until=cluster.engine.now + 60.0)
        assert process.finished
        assert app.orchestrator.table.shards_on(victim) == set()
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


class TestRelocationFence:
    """One relocation moves a replica at a time: a drain and a rebalance
    picking the same replica, or a pick of one already dropped, send no
    RPC."""

    def test_a_replica_already_moving_is_not_moved_again(self):
        cluster, app = single_region_app()
        orchestrator = app.orchestrator
        replica = orchestrator.table.on_address(app.containers[0].address)[0]
        first, second = (c.address for c in app.containers[1:3])
        moving = cluster.engine.process(orchestrator._relocate(replica, first))
        sent = cluster.network.rpcs_sent
        again = cluster.engine.process(orchestrator._relocate(replica,
                                                              second))
        assert again.finished and again.result is False
        assert cluster.network.rpcs_sent == sent
        cluster.run(until=cluster.engine.now + 30.0)
        assert moving.result is True
        assert [r.address for r in orchestrator.table.replicas_of(
            replica.shard_id)] == [first]

    def test_a_dropped_replica_is_not_moved(self):
        cluster, app = single_region_app()
        orchestrator = app.orchestrator
        replica = orchestrator.table.on_address(app.containers[0].address)[0]
        orchestrator.table.drop(replica.replica_id)
        sent = cluster.network.rpcs_sent
        process = cluster.engine.process(orchestrator._relocate(
            replica, app.containers[1].address))
        assert process.finished and process.result is False
        assert cluster.network.rpcs_sent == sent


class TestLoadCollection:
    def test_loads_polled(self):
        cluster, app = single_region_app()
        client = app.client(cluster, "FRC")
        from repro.app.client import WorkloadRecorder
        recorder = WorkloadRecorder.with_bucket(10.0)
        client.run_workload(duration=30.0, rate=lambda t: 20.0,
                            key_fn=lambda rng: rng.randrange(80),
                            recorder=recorder, rng=random.Random(0))
        cluster.run(until=cluster.engine.now + 50.0)
        replica = app.orchestrator.table.all_replicas()[0]
        load = app.orchestrator.load_of(replica)
        assert len(load) == len(app.spec.lb_metrics)

    def test_shard_count_metric_is_constant_one(self):
        _cluster, app = single_region_app()
        replica = app.orchestrator.table.all_replicas()[0]
        assert app.orchestrator.load_of(replica) == (1.0,)

    @pytest.mark.parametrize("lb_metrics", [("shard_count",),
                                            ("request_rate", "shard_count")])
    def test_a_poll_is_scheduled_only_where_a_metric_reads_it(self,
                                                              lb_metrics):
        def events(poll_interval):
            cluster = SimCluster.build(regions=("FRC",),
                                       machines_per_region=5, seed=11)
            spec = AppSpec(name="app", shards=uniform_shards(6, 60),
                           lb_metrics=lb_metrics)
            deploy_app(cluster, spec, {"FRC": 3},
                       orchestrator_config=OrchestratorConfig(
                           load_poll_interval=poll_interval,
                           rebalance_interval=1e9),
                       settle=100.0)
            return cluster.engine.processed_events

        if lb_metrics == ("shard_count",):
            # Nothing is armed, so the interval changes nothing.
            assert events(1.0) == events(50.0)
        else:
            # 100 ticks against 2: each tick is one event.
            assert events(1.0) - events(50.0) == 98

    @pytest.mark.parametrize("cut", ["down", "partition"])
    def test_an_unreachable_server_keeps_its_report_and_counts(self, cut):
        cluster = SimCluster.build(regions=("FRC", "PRN"),
                                   machines_per_region=5, seed=11)
        spec = AppSpec(name="app", shards=uniform_shards(6, 60),
                       lb_metrics=("request_rate", "shard_count"))
        app = deploy_app(cluster, spec, {"PRN": 3},
                         orchestrator_config=OrchestratorConfig(
                             load_poll_interval=10.0, rebalance_interval=1e9),
                         settle=35.0)  # ticks at 10, 20, 30
        orchestrator = app.orchestrator
        address = sorted(orchestrator.servers)[0]
        record = orchestrator.servers[address]
        server = app.runtime.servers[address]
        shard_id = min(orchestrator.table.shards_on(address))
        report = record.shard_loads
        assert shard_id in report
        server.hosted(shard_id).requests_served = 7
        if cut == "down":
            cluster.network.set_endpoint_up(address, False)
        else:
            cluster.network.partition("FRC", "PRN")
        cluster.run(until=45.0)  # the tick at 40 cannot reach it
        assert record.alive
        assert record.shard_loads is report
        assert server.hosted(shard_id).requests_served == 7
        if cut == "down":
            cluster.network.set_endpoint_up(address, True)
        else:
            cluster.network.heal_partition("FRC", "PRN")
        cluster.run(until=55.0)  # the tick at 50 reads 20 s of counts
        assert record.shard_loads is not report
        assert record.shard_loads[shard_id]["request_rate"] == 7 / 20.0
        assert server.hosted(shard_id).requests_served == 0

    @pytest.mark.parametrize("figure", ["skew_lb", "fig23"])
    def test_load_reading_figures_get_a_report_every_tick(self, monkeypatch,
                                                          figure):
        from repro.core.orchestrator import Orchestrator
        from repro.experiments import fig23_continuous_lb, skew_lb

        ticks = []
        poll = Orchestrator._poll_loads

        def counted(self):
            before = {address: record.shard_loads
                      for address, record in self.servers.items()}
            poll(self)
            alive = [address for address, record in self.servers.items()
                     if record.alive]
            fresh = [address for address in alive
                     if self.servers[address].shard_loads is not before[address]]
            ticks.append((self.engine.now, len(alive), len(fresh)))

        monkeypatch.setattr(Orchestrator, "_poll_loads", counted)
        if figure == "skew_lb":
            skew_lb.run_arm("sm", seed=1, duration=60.0)
            interval, servers = 10.0, skew_lb.SERVERS
        else:
            fig23_continuous_lb.run(servers=8, shards=30, days=0.05)
            interval, servers = 30.0, 8
        assert len(ticks) >= 5
        assert [time for time, _, _ in ticks] == [
            interval * (index + 1) for index in range(len(ticks))]
        assert all(fresh == alive for _, alive, fresh in ticks)
        assert all(alive == servers for _, alive, _ in ticks[1:])

    def test_each_tick_journals_who_it_reached(self):
        from repro.obs import Observability

        obs = Observability()
        cluster = SimCluster.build(regions=("FRC", "PRN"),
                                   machines_per_region=5, seed=11, obs=obs)
        spec = AppSpec(name="app", shards=uniform_shards(6, 60),
                       lb_metrics=("request_rate", "shard_count"))
        app = deploy_app(cluster, spec, {"FRC": 2, "PRN": 3},
                         orchestrator_config=OrchestratorConfig(
                             load_poll_interval=10.0, rebalance_interval=1e9),
                         settle=25.0)
        cluster.network.partition("FRC", "PRN")
        cluster.run(until=35.0)
        polls = [(record.time, record.args) for record in obs.journal
                 if record.track == "orchestrator"
                 and record.name == "load_poll"]
        app_args = {"app": app.spec.name}
        assert [time for time, _args in polls] == [10.0, 20.0, 30.0]
        # (The servers join between the first two ticks.)
        assert polls[1:] == [(20.0, {**app_args, "reached": 5, "missing": 0}),
                             (30.0, {**app_args, "reached": 2, "missing": 3})]
        # A read is not an RPC: no net span carries the poll.
        assert not any(record.track == "net"
                       and record.name == "sm.report_load"
                       for record in obs.journal)


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
            drain_policy=DrainPolicy(drain_primaries=False,
                                     drain_secondaries=False),
        )
        app = deploy_app(cluster, spec, {"FRC": 2, "PRN": 2}, settle=60.0)
        # Restart every container in both regions simultaneously.
        for container in app.containers:
            twine = cluster.twines[container.machine.region]
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
        assert app.orchestrator.table.shards_on(victim.address) == set()
        assert app.ready_fraction() == 1.0
