"""Figure 19: cross-region failover and fail-back of a geo-distributed app.

Paper setup: "we deploy a secondary-only application with 1,000 shards
and two replicas per shard across three regions located at FRC (east
coast ...), PRN (west coast ...) and ODN (Odense, Denmark), using 30
servers per region.  Out of the 1,000 shards, 400 so-called east-coast
(EC) shards are configured with a region preference for FRC".

Timeline (scaled 1:1 with the paper):

* t < 90 s   — steady state: an FRC client reads EC shards locally, low
  latency;
* t = 90 s   — FRC fails; requests fail over to PRN/ODN replicas (latency
  spike from retries, then a cross-region plateau); SM recreates the lost
  replicas in the surviving regions;
* t = 450 s  — FRC recovers; SM migrates one replica of each EC shard
  back (region preference), restoring local latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..app.client import WorkloadRecorder
from ..core.orchestrator import OrchestratorConfig
from ..core.spec import AppSpec, ReplicationStrategy, uniform_shards
from ..harness import SimCluster, deploy_app
from ..metrics.timeseries import TimeSeries
from ..sim.rng import substream
from .common import series_rows

REGIONS = ("FRC", "PRN", "ODN")
#: "two replicas per shard".
REPLICA_COUNT = 2
#: The timeline, simulated seconds from the start of the workload.
FAILURE_TIME = 90.0
RECOVERY_TIME = 450.0
HORIZON = 560.0
#: Latency bucket width, seconds.
BUCKET = 10.0


@dataclass
class Fig19Result:
    latency_by_bucket: TimeSeries     # mean EC-shard latency per bucket (ms)
    success_rate: float
    ec_shards_with_frc_replica_before: int
    ec_shards_with_frc_replica_after: int
    cross_region_spread_before: int   # shards whose replicas span 2 regions

    def phase_latency(self, start: float, end: float) -> float:
        window = self.latency_by_bucket.between(start, end)
        return window.mean() if len(window) else float("nan")

    def steady_latency(self) -> float:
        """Mean latency before the region fails (ms)."""
        return self.phase_latency(0.0, FAILURE_TIME)

    def outage_latency(self) -> float:
        """Mean latency on the cross-region plateau (ms): from 30 s after
        the failure, once failover has settled, until recovery."""
        return self.phase_latency(FAILURE_TIME + 30.0, RECOVERY_TIME)


def _ec_shards_in_frc(app, ec_shards: int) -> int:
    table = app.orchestrator.table
    servers = app.orchestrator.servers
    count = 0
    for index in range(ec_shards):
        for replica in table.replicas_of(f"shard{index}"):
            record = servers.get(replica.address)
            if (record is not None and record.alive
                    and record.machine.region == "FRC"):
                count += 1
                break
    return count


def _spread_count(app, shards: int) -> int:
    table = app.orchestrator.table
    servers = app.orchestrator.servers
    spread = 0
    for index in range(shards):
        regions = {servers[r.address].machine.region
                   for r in table.replicas_of(f"shard{index}")
                   if r.address in servers}
        if len(regions) >= 2:
            spread += 1
    return spread


def run(shards: int = 1_000, ec_shards: int = 400,
        servers_per_region: int = 30, request_rate: float = 20.0,
        seed: int = 0) -> Fig19Result:
    cluster = SimCluster.build(
        regions=REGIONS,
        machines_per_region=servers_per_region + 2,
        seed=seed,
    )
    key_space = shards * 16
    preferences = {index: "FRC" for index in range(ec_shards)}
    spec = AppSpec(
        name="fig19",
        shards=uniform_shards(shards, key_space=key_space,
                              replica_count=REPLICA_COUNT,
                              preferred_regions=preferences),
        replication=ReplicationStrategy.SECONDARY_ONLY,
    )
    orchestrator_config = OrchestratorConfig(
        failover_grace=20.0,
        rebalance_interval=20.0,
        max_moves_per_round=200,  # fail-back of 400 EC shards is urgent
    )
    app = deploy_app(
        cluster, spec,
        {region: servers_per_region for region in REGIONS},
        orchestrator_config=orchestrator_config,
        settle=90.0,
    )
    before_frc = _ec_shards_in_frc(app, ec_shards)
    before_spread = _spread_count(app, shards)

    client = app.client(cluster, "FRC")
    recorder = WorkloadRecorder.with_bucket(BUCKET)
    ec_key_limit = (key_space // shards) * ec_shards
    start = cluster.engine.now
    client.run_workload(
        duration=HORIZON,
        rate=lambda t: request_rate,
        key_fn=lambda rng: rng.randrange(ec_key_limit),  # EC shards only
        recorder=recorder,
        rng=substream(seed, "fig19", "workload"),
        prefer_primary=False,
    )
    cluster.engine.call_at(start + FAILURE_TIME,
                           lambda: cluster.twines["FRC"].fail_region())
    cluster.engine.call_at(start + RECOVERY_TIME,
                           lambda: cluster.twines["FRC"].repair_region())
    cluster.run(until=start + HORIZON)

    # Bucketed mean latency relative to the experiment start, in ms.
    sums: Dict[int, Tuple[float, int]] = {}
    for time, latency in recorder.latency:
        index = int((time - start) // BUCKET)
        total, count = sums.get(index, (0.0, 0))
        sums[index] = (total + latency, count + 1)
    latency_series = TimeSeries(name="ec_latency_ms")
    for index in sorted(sums):
        total, count = sums[index]
        latency_series.record((index + 0.5) * BUCKET,
                              1000.0 * total / count)

    total = recorder.succeeded + recorder.failed
    return Fig19Result(
        latency_by_bucket=latency_series,
        success_rate=recorder.succeeded / max(1, total),
        ec_shards_with_frc_replica_before=before_frc,
        ec_shards_with_frc_replica_after=_ec_shards_in_frc(app, ec_shards),
        cross_region_spread_before=before_spread,
    )


def headline(result: Fig19Result) -> Dict[str, float]:
    """The sweep report's numbers for this figure."""
    return {"steady_latency_ms": result.steady_latency(),
            "outage_latency_ms": result.outage_latency(),
            "success_rate": result.success_rate}


def format_report(result: Fig19Result) -> str:
    steady = result.steady_latency()
    outage = result.outage_latency()
    recovered = result.phase_latency(RECOVERY_TIME + 60.0, 1e12)
    lines = [
        "Figure 19 — geo-distributed failover (client at FRC, EC shards)",
        f"  success rate                : {result.success_rate:.4f}",
        f"  EC shards w/ FRC replica    : "
        f"{result.ec_shards_with_frc_replica_before} before, "
        f"{result.ec_shards_with_frc_replica_after} after recovery",
        f"  shards spread >= 2 regions  : {result.cross_region_spread_before}",
        f"  steady-state latency        : {steady:7.1f} ms",
        f"  during-outage latency       : {outage:7.1f} ms",
        f"  post-recovery latency       : {recovered:7.1f} ms",
        "  paper shape: low -> spike at failure -> cross-region plateau ->"
        " back to low after shards move back",
        "",
        series_rows(result.latency_by_bucket, value_label="latency (ms)"),
    ]
    return "\n".join(lines)
