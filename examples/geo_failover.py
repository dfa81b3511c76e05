"""Geo-distributed deployment surviving a whole-region outage (Fig 19).

Runs Figure 19's timeline (``repro.chaos.fig19_spec``) at a small size:
a secondary-only application spreads each shard's two replicas across
three regions, with 40% of shards preferring FRC for locality.  When FRC
fails, clients transparently fail over to PRN/ODN replicas and SM
recreates the lost replicas; when FRC recovers, SM migrates replicas back
for locality.

Run:  python examples/geo_failover.py
"""

from repro.chaos import ScenarioRun, fig19_spec
from repro.obs import get_default
from repro.sim.rng import substream


def main() -> None:
    ec_shards = 48  # "east-coast" shards preferring FRC
    # request_rate=0: the client below, which retries and reads
    # secondaries, replaces the scenario's own.
    spec = fig19_spec(shards=120, ec_shards=ec_shards, servers_per_region=6,
                      request_rate=0.0)
    run = ScenarioRun(spec, "sm", seed=3, obs=get_default())
    table = run.app.orchestrator.table
    servers = run.app.orchestrator.servers

    def describe() -> str:
        in_frc = sum(
            1 for index in range(ec_shards)
            if any(servers[r.address].machine.region == "FRC"
                   for r in table.replicas_of(f"shard{index}")
                   if r.address in servers and servers[r.address].alive))
        return f"EC shards with a live FRC replica: {in_frc}/{ec_shards}"

    print("steady state:", describe())

    recorder = run.recorder
    ec_key_limit = run.app.spec.shards[ec_shards - 1].key_range.high
    run.app.client(run.cluster, "FRC").run_workload(
        duration=spec.duration, rate=lambda t: 20.0,
        key_fn=lambda rng: rng.randrange(ec_key_limit),
        recorder=recorder, rng=substream(run.seed, "workload"),
        prefer_primary=False)
    run.start()

    t0 = run.t0
    for checkpoint in (80, 150, 440, 560):
        run.cluster.run(until=t0 + checkpoint)
        window = recorder.latency.between(t0 + checkpoint - 60,
                                          t0 + checkpoint)
        latency = 1000 * window.mean() if len(window) else float("nan")
        print(f"t={checkpoint:4d}s  mean latency {latency:6.1f} ms   "
              + describe())
    run.finish()

    print(f"\nsuccess rate through outage and recovery: "
          f"{recorder.success.overall_success_rate():.4f}")
    print("shape: local -> cross-region plateau during the outage -> "
          "local again after SM moves replicas home.")


if __name__ == "__main__":
    main()
