"""Quickstart: deploy a sharded key-value store on Shard Manager.

Builds a three-region simulated fleet, deploys a Laser-like primary-only
KV store (app-key range sharding, so prefix scans work), runs client
traffic, and prints the shard map and load-balancing state.

Run:  python examples/quickstart.py
"""

from repro.app.client import WorkloadRecorder
from repro.apps.kvstore import KVStoreApp
from repro.core.spec import AppSpec, ReplicationStrategy, uniform_shards
from repro.harness import SimCluster, deploy_app
from repro.sim.rng import substream


def main() -> None:
    # 1. A simulated world: three regions, ten machines each.
    cluster = SimCluster.build(regions=("FRC", "PRN", "ODN"),
                               machines_per_region=10, seed=42)

    # 2. An application spec: the *application* decides the key->shard
    #    mapping (app-key, app-sharding — §3.1 of the paper).
    spec = AppSpec(
        name="kv",
        shards=uniform_shards(30, key_space=3_000),
        replication=ReplicationStrategy.PRIMARY_ONLY,
    )

    # 3. Application logic: a KV store whose soft state rebuilds from an
    #    external store on migration/restart.
    kv = KVStoreApp(spec)

    # 4. Deploy: containers via Twine, servers wired to ZooKeeper, the
    #    orchestrator places shards, the TaskController guards restarts.
    app = deploy_app(cluster, spec,
                     servers_per_region={"FRC": 4, "PRN": 4, "ODN": 4},
                     handler_factory=kv.handler_factory,
                     settle=60.0)
    print(f"deployed: {app.ready_fraction():.0%} of shards ready")

    # 5. A client in FRC: writes, reads and a prefix scan.
    client = app.client(cluster, "FRC")
    for key, value in [(5, "hello"), (7, "world"), (42, "shard-manager")]:
        client.request(key, {"op": "put", "key": key, "value": value})
    cluster.run(until=cluster.engine.now + 5.0)

    read = client.request(5, {"op": "get", "key": 5})
    scan = client.request(0, {"op": "scan", "low": 0, "high": 100})
    cluster.run(until=cluster.engine.now + 5.0)
    print("get(5)   ->", read.outcome.value)
    print("scan     ->", scan.outcome.value["items"])

    # 6. Sustained load, to exercise routing and load reporting.
    recorder = WorkloadRecorder.with_bucket(10.0)
    client.run_workload(duration=60.0, rate=lambda t: 50.0,
                        key_fn=lambda rng: rng.randrange(3_000),
                        recorder=recorder,
                        rng=substream(cluster.seed, "workload"),
                        payload_fn=lambda key: {"op": "get", "key": key})
    cluster.run(until=cluster.engine.now + 70.0)
    print(f"workload: {recorder.succeeded}/{recorder.sent} requests ok "
          f"({recorder.success.overall_success_rate():.2%}), "
          f"mean latency {1000 * recorder.latency.mean():.1f} ms")

    # 7. Peek at the control plane.
    shard_map = cluster.discovery.latest("kv")
    print(f"shard map v{shard_map.version}: "
          f"{len(shard_map)} shards, e.g. "
          f"{shard_map.entry_at(0).shard_id} -> "
          f"{shard_map.entry_at(0).primary}")
    by_server = {}
    for replica in app.orchestrator.table.all_replicas():
        by_server[replica.address] = by_server.get(replica.address, 0) + 1
    counts = sorted(by_server.values())
    print(f"shards per server: min {counts[0]}, max {counts[-1]} "
          f"(load balanced)")


if __name__ == "__main__":
    main()
