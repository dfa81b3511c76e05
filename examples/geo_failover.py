"""Geo-distributed deployment surviving a whole-region outage (Fig 19).

A secondary-only application spreads each shard's two replicas across
three regions, with 40% of shards preferring FRC for locality.  When FRC
fails, clients transparently fail over to PRN/ODN replicas and SM
recreates the lost replicas; when FRC recovers, SM migrates replicas back
for locality.

Run:  python examples/geo_failover.py
"""

from repro.app.client import WorkloadRecorder
from repro.core.orchestrator import OrchestratorConfig
from repro.core.spec import AppSpec, ReplicationStrategy, uniform_shards
from repro.harness import SimCluster, deploy_app
from repro.sim.rng import substream


def main() -> None:
    cluster = SimCluster.build(regions=("FRC", "PRN", "ODN"),
                               machines_per_region=8, seed=3)
    shards = 120
    ec_shards = 48  # "east-coast" shards preferring FRC
    spec = AppSpec(
        name="geo",
        shards=uniform_shards(
            shards, key_space=shards * 10, replica_count=2,
            preferred_regions={i: "FRC" for i in range(ec_shards)}),
        replication=ReplicationStrategy.SECONDARY_ONLY,
    )
    app = deploy_app(
        cluster, spec, {"FRC": 6, "PRN": 6, "ODN": 6},
        orchestrator_config=OrchestratorConfig(
            failover_grace=20.0, rebalance_interval=20.0,
            max_moves_per_round=100),
        settle=90.0)

    table = app.orchestrator.table
    servers = app.orchestrator.servers

    def describe() -> str:
        in_frc = sum(
            1 for index in range(ec_shards)
            if any(servers[r.address].machine.region == "FRC"
                   for r in table.replicas_of(f"shard{index}")
                   if r.address in servers and servers[r.address].alive))
        return f"EC shards with a live FRC replica: {in_frc}/{ec_shards}"

    print("steady state:", describe())

    client = app.client(cluster, "FRC")
    recorder = WorkloadRecorder.with_bucket(10.0)
    ec_key_limit = (shards * 10 // shards) * ec_shards
    client.run_workload(duration=560.0, rate=lambda t: 20.0,
                        key_fn=lambda rng: rng.randrange(ec_key_limit),
                        recorder=recorder,
                        rng=substream(cluster.seed, "workload"),
                        prefer_primary=False)

    t0 = cluster.engine.now
    cluster.engine.call_at(t0 + 90, lambda: cluster.twines["FRC"].fail_region())
    cluster.engine.call_at(t0 + 450,
                           lambda: cluster.twines["FRC"].repair_region())

    for checkpoint in (80, 150, 440, 560):
        cluster.run(until=t0 + checkpoint)
        window = recorder.latency.between(t0 + checkpoint - 60,
                                          t0 + checkpoint)
        latency = 1000 * window.mean() if len(window) else float("nan")
        print(f"t={checkpoint:4d}s  mean latency {latency:6.1f} ms   "
              + describe())

    print(f"\nsuccess rate through outage and recovery: "
          f"{recorder.success.overall_success_rate():.4f}")
    print("shape: local -> cross-region plateau during the outage -> "
          "local again after SM moves replicas home.")


if __name__ == "__main__":
    main()
