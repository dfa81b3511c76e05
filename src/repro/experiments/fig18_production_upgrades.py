"""Figure 18: production view — no client errors during daily upgrades.

"Facebook's instant-messaging product uses a queue service to guarantee
in-order message delivery ...  The service does a rolling upgrade every
weekday.  It starts with small-scale upgrades, which cause the small
spikes in the 'shard moves' curve ... after three hours, it progresses
to full-scale upgrades, which cause the big spikes.  Despite the large
number of concurrent shard moves, the 'client error rate' curve hardly
changes."

We run the queue-service example over two (scaled) days of diurnal
traffic, with a staged rolling upgrade per day (a small canary upgrade
followed by the full-fleet upgrade), and record the three curves of the
figure: client request rate, client error rate, and shard moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..app.client import WorkloadRecorder
from ..apps.queue_service import QueueServiceApp
from ..core.orchestrator import OrchestratorConfig
from ..core.spec import AppSpec, ReplicationStrategy, uniform_shards
from ..harness import SimCluster, deploy_app
from ..metrics.timeseries import TimeSeries
from ..sim.rng import substream
from ..workloads.load import DiurnalCurve
from .common import series_rows

#: The diurnal request curve's trough and peak, requests per second.
BASE_RATE = 10.0
PEAK_RATE = 40.0
#: Fraction of running containers each day's canary restarts.
CANARY_FRACTION = 0.1
#: Fluid epoch of the ``traffic="fluid"`` path, simulated seconds.
FLUID_EPOCH = 5.0


@dataclass
class Fig18Result:
    request_rate: TimeSeries      # requests per bucket
    error_rate: TimeSeries        # errors / requests per bucket
    shard_moves: TimeSeries       # moves per bucket
    overall_error_rate: float
    order_violations: int
    upgrades_run: int

    def peak_moves(self) -> float:
        return self.shard_moves.max() if len(self.shard_moves) else 0.0

    def max_error_rate(self) -> float:
        return self.error_rate.max() if len(self.error_rate) else 0.0


def run(shards: int = 400, servers: int = 20, day_length: float = 3_600.0,
        days: int = 2, seed: int = 0,
        traffic: str = "event") -> Fig18Result:
    """``day_length`` compresses the diurnal period (default: 1h per
    simulated 'day'); upgrade cadence and shapes are unchanged.

    ``traffic`` selects the per-request path (``"event"``) or the hybrid
    fluid engine (``"fluid"``, advancing flows every ``FLUID_EPOCH``
    seconds);
    both land outcomes in the same recorder, so the derived curves and
    headline numbers are comparable across modes.
    """
    if traffic not in ("event", "fluid"):
        raise ValueError(f"unknown traffic mode {traffic!r}")

    cluster = SimCluster.build(
        regions=("FRC",),
        machines_per_region=servers + 4,
        seed=seed,
    )
    spec = AppSpec(
        name="queue",
        shards=uniform_shards(shards, key_space=shards * 8),
        replication=ReplicationStrategy.PRIMARY_ONLY,
        max_concurrent_container_ops=max(1, servers // 10),
    )
    queue_app = QueueServiceApp(spec)
    orchestrator_config = OrchestratorConfig(
        failover_grace=240.0,
        rebalance_interval=120.0,
        drain_concurrency=4,
        drain_pacing=0.2,
    )
    app = deploy_app(cluster, spec, {"FRC": servers},
                     handler_factory=queue_app.handler_factory,
                     orchestrator_config=orchestrator_config,
                     settle=60.0)

    recorder = WorkloadRecorder.with_bucket(day_length / 48.0)
    curve = DiurnalCurve(base=BASE_RATE, peak=PEAK_RATE, period=day_length,
                         phase=day_length / 4.0)
    horizon = days * day_length

    def key_fn(rng) -> int:
        return rng.randrange(shards * 8)

    start = cluster.engine.now
    if traffic == "fluid":
        fluid = app.fluid_client(cluster, "FRC")
        fluid.run_workload(duration=horizon, rate=curve, recorder=recorder,
                           epoch=FLUID_EPOCH)
    else:
        client = app.client(cluster, "FRC", attempts=2, rpc_timeout=0.5,
                            retry_backoff=0.2)
        client.run_workload(
            duration=horizon, rate=curve, key_fn=key_fn, recorder=recorder,
            rng=substream(seed, "fig18", "workload"),
            payload_fn=lambda key: {"op": "enqueue", "queue": key,
                                    "message": f"m{key}"})

    # Staged daily upgrades: canary at 25% of the day, full at 37.5%.
    upgrades_run = 0
    twine = cluster.twines["FRC"]
    concurrency = max(1, servers // 10)
    restart_duration = 30.0

    def canary(day_index: int) -> None:
        nonlocal upgrades_run
        containers = [c for c in twine.job_containers(spec.name)
                      if c.running]
        canary_count = max(1, int(len(containers) * CANARY_FRACTION))
        for container in containers[:canary_count]:
            from ..cluster.taskcontrol import OpKind, OpReason
            twine.submit_op(OpKind.RESTART, container, OpReason.UPGRADE)
        upgrades_run += 1

    def full(day_index: int) -> None:
        nonlocal upgrades_run
        try:
            twine.start_rolling_upgrade(spec.name, concurrency,
                                        restart_duration)
        except RuntimeError:
            return
        upgrades_run += 1

    for day in range(days):
        cluster.engine.call_at(start + day * day_length + day_length * 0.25,
                               lambda d=day: canary(d))
        cluster.engine.call_at(start + day * day_length + day_length * 0.375,
                               lambda d=day: full(d))

    cluster.run(until=start + horizon + 120.0)

    # Derive the three curves, bucketed like the figure.
    bucket = recorder.success.width
    request_rate = TimeSeries(name="request_rate")
    error_rate = TimeSeries(name="error_rate")
    for index in recorder.success.buckets():
        ok, failed = recorder.success.totals(index)
        request_rate.record((index + 0.5) * bucket, ok + failed)
        error_rate.record((index + 0.5) * bucket,
                          failed / max(1, ok + failed))
    moves = app.orchestrator.move_counter.windowed(bucket)

    total = recorder.succeeded + recorder.failed
    return Fig18Result(
        request_rate=request_rate,
        error_rate=error_rate,
        shard_moves=moves,
        overall_error_rate=recorder.failed / max(1, total),
        order_violations=queue_app.order_violations,
        upgrades_run=upgrades_run,
    )


def headline(result: Fig18Result) -> Dict[str, float]:
    """The sweep report's numbers for this figure."""
    return {"overall_error_rate": result.overall_error_rate,
            "order_violations": result.order_violations,
            "upgrades_run": result.upgrades_run,
            "peak_moves": result.peak_moves()}


def format_report(result: Fig18Result) -> str:
    lines = [
        "Figure 18 — diurnal traffic, daily staged upgrades, flat errors",
        f"  upgrades run        : {result.upgrades_run}",
        f"  overall error rate  : {result.overall_error_rate:.5f}",
        f"  max bucket error    : {result.max_error_rate():.5f}",
        f"  peak shard moves    : {result.peak_moves():.0f} per bucket",
        "  paper shape: request rate diurnal; move spikes at upgrades;"
        " error rate hardly changes",
        "",
        "shard moves per bucket:",
        series_rows(result.shard_moves, value_label="moves"),
    ]
    return "\n".join(lines)
