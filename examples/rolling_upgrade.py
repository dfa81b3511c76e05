"""Zero-downtime rolling upgrade (the Figure 17 scenario, interactive).

Runs Figure 17's timeline (``repro.chaos.fig17_spec``) at a small size:
a primary-only application under client traffic, then a rolling software
upgrade of every container.  SM's TaskController negotiates each restart
with the cluster manager and drains shards with the five-step graceful
primary migration first — watch the success rate stay at 100% while
every container restarts.

Run:  python examples/rolling_upgrade.py
"""

from repro.chaos import ScenarioRun, fig17_spec
from repro.obs import get_default


def main() -> None:
    spec = fig17_spec(shards=240, servers=20, request_rate=40.0,
                      duration=1_200.0)
    run = ScenarioRun(spec, "sm", seed=7, obs=get_default())
    stats = run.app.orchestrator.executor.stats
    print(f"deployed {spec.shards} shards on {spec.servers_per_region} "
          f"servers ({run.app.ready_fraction():.0%} ready)")

    print("starting rolling upgrade (restart every container)...")
    run.start()
    while not any(upgrade.done for upgrade in run.upgrades):
        run.cluster.run(until=run.engine.now + 60.0)
        upgrade = run.upgrades[0]
        print(f"  t={run.engine.now:6.0f}s  upgraded "
              f"{upgrade.completed:2d}/{upgrade.total}  "
              f"moves so far: {stats.graceful_migrations}")
    run.cluster.run(until=run.engine.now + 60.0)
    run.finish()

    recorder = run.recorder
    duration = upgrade.finished_at - upgrade.started_at
    print(f"\nupgrade finished in {duration:.0f} simulated seconds")
    print(f"requests: {recorder.succeeded} ok, {recorder.failed} failed "
          f"({recorder.success.overall_success_rate():.4%} success)")
    print(f"graceful migrations: {stats.graceful_migrations} "
          f"(each one: prepare_add -> prepare_drop/forward -> add -> "
          f"map update -> drop)")
    assert recorder.failed == 0, "graceful migration should drop nothing"
    print("no requests were dropped — the §4.3 protocol at work.")


if __name__ == "__main__":
    main()
