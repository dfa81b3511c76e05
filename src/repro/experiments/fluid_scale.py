"""Fluid-scale scenario: 10M users, diurnal traffic, three regions.

The paper's workloads are "billions of Facebook product users' realtime
activities" — far beyond what a per-request discrete-event simulation
can turn over.  This scenario drives the hybrid fluid engine at a scale
the event path cannot touch: ten million users spread over three
regions, each region's aggregate request rate following a phase-shifted
diurnal curve (follow-the-sun), with staged daily rolling upgrades per
region and the full SM control plane (orchestrator, TaskController,
ZooKeeper, delta-disseminated shard maps) running as real discrete
events underneath.

The headline is what the simulated system did: total integrated
arrivals, availability, latency, peak utilisation, shard moves and how
many flows each map update repriced.  How fast the host turns the day
over is ``bench/``'s ``fluid_diurnal`` workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.orchestrator import OrchestratorConfig
from ..core.spec import AppSpec, ReplicationStrategy, uniform_shards
from ..app.client import WorkloadRecorder
from ..harness import SimCluster, deploy_app
from ..sim.fluid import EpochDriver
from ..workloads.load import DiurnalCurve

# The scenario's set-up.
USERS = 10_000_000
SHARDS = 1_000
SERVERS_PER_REGION = 25
REGIONS = ("FRC", "PRN", "ODN")
#: A compressed day, in simulated seconds, and how many of them run.
DAY_LENGTH = 3_600.0
DAYS = 2
#: Fluid epoch, in simulated seconds.
EPOCH = 30.0
#: Mean request rate of one user; the regional aggregate curves swing
#: 0.4x–1.6x around it.
RATE_PER_USER = 0.1


@dataclass
class FluidScaleResult:
    """Headline numbers for the 10M-user fluid scenario."""

    users: int
    regions: int
    shards: int
    servers: int
    sim_seconds: float
    arrivals: float               # total integrated requests
    availability: float           # ok / arrivals
    mean_latency_ms: float
    p99_latency_ms: float
    max_utilization: float
    shard_moves: int
    upgrades_run: int
    epochs: int
    flows: int
    delta_reprices: int
    full_reprices: int


def run(seed: int = 0) -> FluidScaleResult:
    """Two (compressed) DAYS of follow-the-sun diurnal traffic.

    Each region's aggregate curve is phase-shifted a third of a day from
    the next, and each region runs one staged rolling upgrade per day.
    Arrival integration is exact (the curves expose closed-form
    integrals), so epochs can be coarse without aliasing the diurnal
    shape.
    """
    cluster = SimCluster.build(
        regions=REGIONS,
        machines_per_region=SERVERS_PER_REGION + 4,
        seed=seed,
    )
    spec = AppSpec(
        name="fluid10m",
        shards=uniform_shards(SHARDS, key_space=SHARDS * 16),
        replication=ReplicationStrategy.PRIMARY_ONLY,
        max_concurrent_container_ops=max(1, SERVERS_PER_REGION // 10),
    )
    orchestrator_config = OrchestratorConfig(
        failover_grace=240.0,
        rebalance_interval=300.0,
        drain_concurrency=4,
        drain_pacing=0.2,
    )
    app = deploy_app(cluster, spec,
                     {region: SERVERS_PER_REGION for region in REGIONS},
                     orchestrator_config=orchestrator_config,
                     settle=90.0)

    horizon = DAYS * DAY_LENGTH
    start = cluster.engine.now
    users_per_region = USERS // len(REGIONS)
    # Per-server capacity sized so the regional peak lands around 70%
    # utilization — daily peaks push hot servers close to (but normally
    # not over) the overload threshold.
    peak_regional = 1.6 * RATE_PER_USER * users_per_region
    service_time = 0.0005
    capacity = max(1, int(peak_regional * service_time
                          / (0.7 * SERVERS_PER_REGION)) + 1)

    driver = EpochDriver(cluster.engine, epoch=EPOCH,
                         tracer=cluster.obs.tracer)
    clients = []
    recorders: List[WorkloadRecorder] = []
    for index, region in enumerate(REGIONS):
        curve = DiurnalCurve(
            base=0.4 * RATE_PER_USER * users_per_region,
            peak=1.6 * RATE_PER_USER * users_per_region,
            period=DAY_LENGTH,
            phase=DAY_LENGTH * index / len(REGIONS),  # follow the sun
        )
        recorder = WorkloadRecorder.with_bucket(DAY_LENGTH / 48.0)
        client = app.fluid_client(cluster, region,
                                  capacity=capacity,
                                  service_time=service_time,
                                  load_feed_interval=60.0)
        client.run_workload(duration=horizon, rate=curve,
                            recorder=recorder, driver=driver)
        clients.append(client)
        recorders.append(recorder)

    # Staged daily upgrades, one region at a time (production cadence:
    # the same fleet-wide release walks the regions).
    upgrades_run = 0
    concurrency = max(1, SERVERS_PER_REGION // 10)

    def full_upgrade(region: str) -> None:
        nonlocal upgrades_run
        try:
            cluster.twines[region].start_rolling_upgrade(
                spec.name, concurrency, restart_duration=60.0)
        except RuntimeError:
            return
        upgrades_run += 1

    for day in range(DAYS):
        for index, region in enumerate(REGIONS):
            at = start + day * DAY_LENGTH + DAY_LENGTH * (0.2 + 0.15 * index)
            cluster.engine.call_at(at, lambda r=region: full_upgrade(r))

    cluster.run(until=start + horizon + 120.0)

    arrivals = sum(c.arrivals_total for c in clients)
    ok = sum(c.ok_total for c in clients)
    mean_num = mean_den = 0.0
    p99 = 0.0
    for client, recorder in zip(clients, recorders):
        if len(recorder.latency):
            mean_num += client.ok_total * recorder.latency.mean()
            mean_den += client.ok_total
        if len(client.latency_p99):
            p99 = max(p99, client.latency_p99.max())
    max_utilization = max(
        (server.utilization for client in clients
         for server in client._servers.values()), default=0.0)

    return FluidScaleResult(
        users=USERS,
        regions=len(REGIONS),
        shards=SHARDS,
        servers=SERVERS_PER_REGION * len(REGIONS),
        sim_seconds=horizon,
        arrivals=arrivals,
        availability=ok / arrivals if arrivals > 0 else 0.0,
        mean_latency_ms=(mean_num / mean_den * 1e3) if mean_den else 0.0,
        p99_latency_ms=p99 * 1e3,
        max_utilization=max_utilization,
        shard_moves=app.orchestrator.executor.stats.total_moves,
        upgrades_run=upgrades_run,
        epochs=sum(c.epochs for c in clients),
        flows=sum(c.flow_count() for c in clients),
        delta_reprices=sum(c.delta_reprices for c in clients),
        full_reprices=sum(c.full_reprices for c in clients),
    )


def format_report(result: FluidScaleResult) -> str:
    return "\n".join([
        "Fluid scale — 10M users, diurnal, multi-region",
        f"  users               : {result.users:,} over {result.regions} "
        f"regions ({result.shards} shards, {result.servers} servers)",
        f"  simulated           : {result.sim_seconds:,.0f}s",
        f"  arrivals            : {result.arrivals:,.0f}",
        f"  availability        : {result.availability:.6f}",
        f"  latency mean / p99  : {result.mean_latency_ms:.2f} / "
        f"{result.p99_latency_ms:.2f} ms",
        f"  max utilization     : {result.max_utilization:.3f}",
        f"  shard moves         : {result.shard_moves}",
        f"  upgrades run        : {result.upgrades_run}",
        f"  fluid epochs        : {result.epochs} "
        f"({result.flows} flows, {result.delta_reprices} delta reprices, "
        f"{result.full_reprices} full rebuilds)",
    ])
