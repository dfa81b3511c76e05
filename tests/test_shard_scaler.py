"""Unit tests for the shard scaler (replica-count autoscaling)."""

import pytest

from repro.core.orchestrator import OrchestratorConfig
from repro.core.shard_scaler import ShardScaler, ShardScalerConfig
from repro.core.spec import AppSpec, ReplicationStrategy, uniform_shards
from repro.harness import SimCluster, deploy_app


def scaled_app(load_per_shard, shards=4, servers=6):
    cluster = SimCluster.build(regions=("FRC",),
                               machines_per_region=servers + 2, seed=9)
    spec = AppSpec(
        name="app",
        shards=uniform_shards(shards, shards * 10, replica_count=2),
        replication=ReplicationStrategy.PRIMARY_SECONDARY,
        lb_metrics=("request_rate",),
    )
    app = deploy_app(
        cluster, spec, {"FRC": servers},
        base_loads=lambda shard_id: {"request_rate": load_per_shard},
        # No periodic rebalance within any test's horizon.
        orchestrator_config=OrchestratorConfig(load_poll_interval=5.0,
                                               rebalance_interval=1e9),
        settle=60.0)
    return cluster, app


class TestShardScaler:
    def test_rejects_primary_only_apps(self):
        cluster = SimCluster.build(regions=("FRC",), machines_per_region=4,
                                   seed=1)
        spec = AppSpec(name="p", shards=uniform_shards(2, 20),
                       replication=ReplicationStrategy.PRIMARY_ONLY)
        app = deploy_app(cluster, spec, {"FRC": 2}, settle=40.0)
        with pytest.raises(ValueError):
            ShardScaler(cluster.engine, app.orchestrator)

    def test_rejects_a_metric_the_app_does_not_balance_on(self):
        # Only an LB metric's loads are collected; any other would read 0.
        cluster, app = scaled_app(load_per_shard=180.0)
        with pytest.raises(ValueError, match="cpu"):
            ShardScaler(cluster.engine, app.orchestrator,
                        ShardScalerConfig(metric="cpu"))

    def test_scales_up_under_load(self):
        cluster, app = scaled_app(load_per_shard=180.0)
        scaler = ShardScaler(cluster.engine, app.orchestrator,
                             ShardScalerConfig(interval=10.0,
                                               replica_capacity=100.0,
                                               max_replicas=4))
        scaler.start()
        cluster.run(until=cluster.engine.now + 120.0)
        # per-replica load 90 > 0.8*100 -> scale up
        counts = [len(app.orchestrator.table.replicas_of(s.shard_id))
                  for s in app.spec.shards]
        assert all(count >= 3 for count in counts)
        assert scaler.stats.scale_ups > 0

    def test_scales_down_when_idle(self):
        cluster, app = scaled_app(load_per_shard=2.0)
        # Manually add an extra secondary to one shard, then expect the
        # scaler to remove it (load per replica is far below the low
        # watermark but the spec floor is 2 replicas).
        scaler = ShardScaler(cluster.engine, app.orchestrator,
                             ShardScalerConfig(interval=10.0,
                                               replica_capacity=100.0))
        from repro.core.shard_map import Role
        shard0_addresses = {r.address
                            for r in app.orchestrator.table.replicas_of(
                                "shard0")}
        target = next(
            record.address for record in app.orchestrator.servers.values()
            if record.address not in shard0_addresses)
        cluster.engine.process(app.orchestrator.executor.create_replica(
            "shard0", target, Role.SECONDARY))
        cluster.run(until=cluster.engine.now + 10.0)
        assert len(app.orchestrator.table.replicas_of("shard0")) == 3
        scaler.start()
        cluster.run(until=cluster.engine.now + 60.0)
        assert len(app.orchestrator.table.replicas_of("shard0")) == 2
        assert scaler.stats.scale_downs >= 1

    def test_respects_max_replicas(self):
        cluster, app = scaled_app(load_per_shard=500.0)
        scaler = ShardScaler(cluster.engine, app.orchestrator,
                             ShardScalerConfig(interval=10.0,
                                               replica_capacity=100.0,
                                               max_replicas=3))
        scaler.start()
        cluster.run(until=cluster.engine.now + 200.0)
        for shard in app.spec.shards:
            assert len(app.orchestrator.table.replicas_of(
                shard.shard_id)) <= 3

    def test_stop_halts_scaling(self):
        cluster, app = scaled_app(load_per_shard=180.0)
        scaler = ShardScaler(cluster.engine, app.orchestrator,
                             ShardScalerConfig(interval=10.0,
                                               replica_capacity=100.0))
        scaler.start()
        scaler.stop()
        cluster.run(until=cluster.engine.now + 60.0)
        assert scaler.stats.scale_ups == 0
