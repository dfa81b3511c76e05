"""§6.2: control-plane fault tolerance.

"Other components are stateful and use a primary-secondary setup" and
"even if all SM control-plane components are down, application clients
can continue to send requests to application servers".  These tests
exercise both properties: a replacement orchestrator restores its
predecessor's state from ZooKeeper without reshuffling shards, and the
data plane keeps serving while the control plane is down.
"""

import random

from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.core.spec import AppSpec, ReplicationStrategy, uniform_shards
from repro.harness import SimCluster, deploy_app
from repro.sim.rng import substream


def deployed(seed=41):
    cluster = SimCluster.build(regions=("FRC",), machines_per_region=6,
                               seed=seed)
    spec = AppSpec(name="app", shards=uniform_shards(8, 80),
                   replication=ReplicationStrategy.PRIMARY_ONLY)
    app = deploy_app(cluster, spec, {"FRC": 4}, settle=60.0)
    return cluster, app


class TestControlPlaneFailover:
    def test_successor_restores_assignments(self):
        cluster, app = deployed()
        before = {r.shard_id: r.address
                  for r in app.orchestrator.table.all_replicas()}
        moves_before = app.orchestrator.executor.stats.total_moves

        # The control-plane replica dies; a successor takes over.
        app.orchestrator.stop()
        successor = Orchestrator(
            engine=cluster.engine,
            network=cluster.network,
            zookeeper=cluster.zookeeper,
            discovery=cluster.discovery,
            spec=app.spec,
            topology=cluster.topology,
            config=OrchestratorConfig(),
            rng=substream(99, "successor"),
        )
        successor.start()
        cluster.run(until=cluster.engine.now + 60.0)

        after = {r.shard_id: r.address
                 for r in successor.table.all_replicas()}
        assert after == before  # no reshuffling on takeover
        assert successor.executor.stats.total_moves == 0
        assert moves_before == app.orchestrator.executor.stats.total_moves

    def test_map_versions_stay_monotonic_across_failover(self):
        cluster, app = deployed(seed=43)
        old_version = cluster.discovery.latest("app").version
        app.orchestrator.stop()
        successor = Orchestrator(
            engine=cluster.engine,
            network=cluster.network,
            zookeeper=cluster.zookeeper,
            discovery=cluster.discovery,
            spec=app.spec,
            topology=cluster.topology,
        )
        successor.start()
        cluster.run(until=cluster.engine.now + 30.0)
        assert cluster.discovery.latest("app").version > old_version

    def test_clients_keep_working_while_control_plane_down(self):
        """"Application clients can continue to send requests to
        application servers, although new shard assignments would not be
        generated." """
        cluster, app = deployed(seed=47)
        app.orchestrator.stop()
        client = app.client(cluster, "FRC")
        from repro.app.client import WorkloadRecorder
        recorder = WorkloadRecorder.with_bucket(10.0)
        client.run_workload(duration=30.0, rate=lambda t: 20.0,
                            key_fn=lambda rng: rng.randrange(80),
                            recorder=recorder, rng=random.Random(0))
        cluster.run(until=cluster.engine.now + 40.0)
        assert recorder.failed == 0
        assert recorder.succeeded > 400
