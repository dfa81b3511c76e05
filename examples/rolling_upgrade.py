"""Zero-downtime rolling upgrade (the Figure 17 scenario, interactive).

Deploys a primary-only application, starts client traffic, then performs
a rolling software upgrade of every container.  SM's TaskController
negotiates each restart with the cluster manager and drains shards with
the five-step graceful primary migration first — watch the success rate
stay at 100% while every container restarts.

Run:  python examples/rolling_upgrade.py
"""

from repro.app.client import WorkloadRecorder
from repro.core.orchestrator import OrchestratorConfig
from repro.core.spec import AppSpec, ReplicationStrategy, uniform_shards
from repro.harness import SimCluster, deploy_app
from repro.sim.rng import substream


def main() -> None:
    servers = 12
    shards = 240
    cluster = SimCluster.build(regions=("FRC",),
                               machines_per_region=servers + 2, seed=7)
    spec = AppSpec(
        name="svc",
        shards=uniform_shards(shards, key_space=shards * 16),
        replication=ReplicationStrategy.PRIMARY_ONLY,
        max_concurrent_container_ops=2,  # the app's global restart cap
    )
    app = deploy_app(
        cluster, spec, {"FRC": servers},
        orchestrator_config=OrchestratorConfig(drain_concurrency=4),
        settle=60.0)
    print(f"deployed {shards} shards on {servers} servers "
          f"({app.ready_fraction():.0%} ready)")

    client = app.client(cluster, "FRC", attempts=1)
    recorder = WorkloadRecorder.with_bucket(30.0)
    client.run_workload(duration=1_200.0, rate=lambda t: 40.0,
                        key_fn=lambda rng: rng.randrange(shards * 16),
                        recorder=recorder,
                        rng=substream(cluster.seed, "workload"))

    print("starting rolling upgrade (restart every container)...")
    upgrade = cluster.twines["FRC"].start_rolling_upgrade(
        "svc", max_concurrent=2, restart_duration=30.0)
    while not upgrade.done:
        cluster.run(until=cluster.engine.now + 60.0)
        print(f"  t={cluster.engine.now:6.0f}s  upgraded "
              f"{upgrade.completed:2d}/{upgrade.total}  "
              f"moves so far: "
              f"{app.orchestrator.executor.stats.graceful_migrations}")

    cluster.run(until=cluster.engine.now + 60.0)
    duration = upgrade.finished_at - upgrade.started_at
    print(f"\nupgrade finished in {duration:.0f} simulated seconds")
    print(f"requests: {recorder.succeeded} ok, {recorder.failed} failed "
          f"({recorder.success.overall_success_rate():.4%} success)")
    print(f"graceful migrations: "
          f"{app.orchestrator.executor.stats.graceful_migrations} "
          f"(each one: prepare_add -> prepare_drop/forward -> add -> "
          f"map update -> drop)")
    assert recorder.failed == 0, "graceful migration should drop nothing"
    print("no requests were dropped — the §4.3 protocol at work.")


if __name__ == "__main__":
    main()
