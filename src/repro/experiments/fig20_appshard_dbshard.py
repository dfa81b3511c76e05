"""Figure 20: AppShards follow DBShards across regions to restore latency.

"All accesses to a given SQL database shard (so-called DBShard) must go
through the same application shard (so-called AppShard).  A pair of
DBShard and AppShard should always run in the same region to minimize
latency.  ... an administrator initiates the first batch of DBShard
moves across four regions, which causes a spike in latency ... The
administrator updates the regional placement preference for the impacted
AppShards, which triggers SM to move the AppShards to co-locate with
their DBShards.  ... Half an hour later, the administrator initiates the
second batch of DBShard moves and the process repeats."

The SQL database is "not managed by SM": DBShards here are a static
region table mutated by admin events.  AppShards are a primary-only SM
application whose per-shard region preferences the admin updates after
each batch; SM's affinity goal does the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from ..core.orchestrator import OrchestratorConfig
from ..core.spec import AppSpec, ReplicationStrategy, uniform_shards
from ..harness import SimCluster, deploy_app
from ..metrics.timeseries import TimeSeries
from ..sim.engine import every
from .common import series_rows

REGIONS = ("FRC", "PRN", "ODN", "LLA")


@dataclass
class Fig20Result:
    latency: TimeSeries           # mean AppShard<->DBShard latency (ms)
    app_shard_moves: TimeSeries   # SM migrations per bucket
    db_shard_moves: TimeSeries    # admin-initiated moves per bucket
    batches: int

    def latency_at(self, time: float) -> float:
        return self.latency.value_at(time)


def run(shard_count: int = 24, servers_per_region: int = 4,
        batch_times: tuple = (300.0, 900.0), batch_size: int = 8,
        horizon: float = 1_500.0, sample_interval: float = 10.0,
        seed: int = 0) -> Fig20Result:
    cluster = SimCluster.build(
        regions=REGIONS,
        machines_per_region=servers_per_region + 2,
        seed=seed,
    )
    # DBShards: a static region table, not managed by SM.
    db_region: Dict[int, str] = {
        index: REGIONS[index % len(REGIONS)] for index in range(shard_count)}
    spec = AppSpec(
        name="fig20",
        shards=uniform_shards(
            shard_count, key_space=shard_count * 8,
            preferred_regions={i: db_region[i] for i in range(shard_count)}),
        replication=ReplicationStrategy.PRIMARY_ONLY,
    )
    orchestrator_config = OrchestratorConfig(
        rebalance_interval=30.0,
        failover_grace=60.0,
    )
    app = deploy_app(cluster, spec,
                     {region: servers_per_region for region in REGIONS},
                     orchestrator_config=orchestrator_config,
                     settle=90.0)
    orchestrator = app.orchestrator

    latency = TimeSeries(name="app_db_latency_ms")
    db_moves = TimeSeries(name="db_moves")

    def mean_pair_latency() -> float:
        total, count = 0.0, 0
        for index in range(shard_count):
            shard_id = f"shard{index}"
            replicas = orchestrator.table.replicas_of(shard_id)
            ready = [r for r in replicas if r.available
                     and r.address in orchestrator.servers]
            if not ready:
                continue
            app_region = orchestrator.servers[ready[0].address].machine.region
            total += cluster.network.latency.base_latency(
                app_region, db_region[index])
            count += 1
        return 1000.0 * total / max(1, count)

    start = cluster.engine.now
    every(cluster.engine, sample_interval,
          lambda: latency.record(cluster.engine.now - start,
                                 mean_pair_latency()))

    def admin_batch(batch_index: int) -> None:
        """Move ``batch_size`` DBShards to the next region over, then
        update the impacted AppShards' preferences (two separate admin
        actions, exactly as in the paper's incident)."""
        moved = []
        for offset in range(batch_size):
            index = (batch_index * batch_size + offset) % shard_count
            current = db_region[index]
            db_region[index] = REGIONS[
                (REGIONS.index(current) + 1) % len(REGIONS)]
            moved.append(index)
        db_moves.record(cluster.engine.now - start, len(moved))

        def update_preferences() -> None:
            for index in moved:
                shard = spec.shard(f"shard{index}")
                position = spec.shards.index(shard)
                spec.shards[position] = replace(
                    shard, preferred_region=db_region[index])

        # The admin notices the latency regression and updates preferences
        # shortly after the DB move.
        cluster.engine.call_after(30.0, update_preferences)

    for batch_index, batch_time in enumerate(batch_times):
        cluster.engine.call_at(start + batch_time,
                               lambda b=batch_index: admin_batch(b))

    cluster.run(until=start + horizon)
    moves = orchestrator.move_counter.windowed(60.0)
    return Fig20Result(
        latency=latency,
        app_shard_moves=moves,
        db_shard_moves=db_moves,
        batches=len(batch_times),
    )


def format_report(result: Fig20Result) -> str:
    lines = [
        "Figure 20 — AppShards migrate to follow DBShards",
        f"  admin batches              : {result.batches}",
        f"  total AppShard moves       : "
        f"{sum(int(v) for _t, v in result.app_shard_moves)}",
        "  paper shape: latency spikes at each DBShard batch, then falls"
        " back as SM co-locates AppShards",
        "",
        "mean AppShard<->DBShard latency (ms):",
        series_rows(result.latency, value_label="latency (ms)"),
    ]
    return "\n".join(lines)
