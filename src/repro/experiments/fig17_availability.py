"""Figure 17: SM upholds availability during software upgrades.

Paper setup: "We deploy a primary-only application with 10,000 shards on
60 servers.  The application's configuration allows up to 10% of its
containers to be restarted concurrently during a rolling upgrade."

Three arms:

1. **SM** — TaskController negotiates restarts, shards are gracefully
   drained with the §4.3 zero-drop migration → success stays ≈100%, the
   upgrade takes the longest (paper ≈1,500 s);
2. **no graceful migration** — drains still happen but primaries move
   with a drop-then-add handoff; requests racing the shard-map update
   fail → ≈98%;
3. **no graceful migration & no TaskController** — the cluster manager
   restarts containers blindly; shards are down for each container's
   whole restart → success < 90%, but the upgrade finishes earliest
   (paper ≈800 s).

Sizes are scaled down ~5x by default (2,000 shards on 60 servers) with
the paper's 10% restart concurrency kept; pass ``shards=10_000`` for the
full-size run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..app.client import WorkloadRecorder
from ..core.orchestrator import OrchestratorConfig
from ..core.spec import AppSpec, ReplicationStrategy, uniform_shards
from ..core.task_controller import SMTaskControllerConfig
from ..harness import SimCluster, deploy_app
from ..metrics.timeseries import TimeSeries
from ..sim.rng import substream
from ..workloads.load import ConstantCurve
from .common import series_rows

#: Fluid epoch of the ``traffic="fluid"`` arm, simulated seconds.
FLUID_EPOCH = 2.0


@dataclass
class UpgradeArm:
    """One line of Figure 17."""

    label: str
    success_rate: float
    upgrade_duration: float
    requests_sent: int
    requests_failed: int
    success_series: TimeSeries
    shard_moves: int


#: The three lines of Figure 17: arm -> (label, graceful migration,
#: TaskController registered).
ARMS: Dict[str, Tuple[str, bool, bool]] = {
    "sm": ("SM", True, True),
    "no_graceful_migration": ("no graceful migration", False, True),
    "no_graceful_no_taskcontroller": (
        "no graceful migration & no TaskController", False, False),
}


@dataclass
class Fig17Result:
    arms: Dict[str, UpgradeArm]

    @property
    def sm(self) -> UpgradeArm:
        return self.arms["sm"]

    @property
    def no_graceful(self) -> UpgradeArm:
        return self.arms["no_graceful_migration"]

    @property
    def neither(self) -> UpgradeArm:
        return self.arms["no_graceful_no_taskcontroller"]


def run_arm(arm: str, shards: int = 2_000, servers: int = 60,
            restart_duration: float = 60.0, request_rate: float = 60.0,
            seed: int = 0, traffic: str = "event") -> UpgradeArm:
    """One line of the figure: the rolling upgrade under ``arm``."""
    if traffic not in ("event", "fluid"):
        raise ValueError(f"unknown traffic mode {traffic!r}")
    label, graceful, with_task_controller = ARMS[arm]
    cluster = SimCluster.build(
        regions=("FRC",),
        machines_per_region=servers + 4,
        seed=seed,
        discovery_base_delay=2.0,
        discovery_jitter=3.0,
    )
    concurrency = max(1, servers // 10)  # the paper's 10% restart cap
    spec = AppSpec(
        name="fig17",
        shards=uniform_shards(shards, key_space=shards * 16),
        replication=ReplicationStrategy.PRIMARY_ONLY,
        max_concurrent_container_ops=concurrency,
    )
    orchestrator_config = OrchestratorConfig(
        graceful_migration=graceful,
        failover_grace=restart_duration * 2.0,
        rebalance_interval=60.0,
        drain_concurrency=2,
        drain_pacing=2.0,  # production-paced drains (what stretches SM's
                           # upgrade to ~2x the blind restart's duration)
    )
    app = deploy_app(
        cluster, spec, {"FRC": servers},
        orchestrator_config=orchestrator_config,
        controller_config=SMTaskControllerConfig(
            restart_duration_hint=restart_duration * 2.0),
        with_task_controller=with_task_controller,
        settle=60.0,
    )
    if app.ready_fraction() < 1.0:
        cluster.run(until=cluster.engine.now + 60.0)

    recorder = WorkloadRecorder.with_bucket(30.0)
    horizon = 4_000.0
    if traffic == "fluid":
        # Same workload as flows: the epoch must sit under the discovery
        # fan-out window (2–5 s here) so map-staleness failures resolve
        # on the same timescale the per-request path sees them.
        fluid = app.fluid_client(cluster, "FRC")
        fluid.run_workload(duration=horizon,
                           rate=ConstantCurve(request_rate),
                           recorder=recorder, epoch=FLUID_EPOCH)
    else:
        # attempts=1: the paper's y-axis is the raw client request success
        # rate; retries would mask exactly the drops Figure 17 measures.
        client = app.client(cluster, "FRC", attempts=1, rpc_timeout=0.5)
        client.run_workload(
            duration=horizon,
            rate=ConstantCurve(request_rate),
            key_fn=lambda rng: rng.randrange(shards * 16),
            recorder=recorder,
            rng=substream(seed, "fig17", "workload"),
        )
    upgrade = cluster.twines["FRC"].start_rolling_upgrade(
        spec.name, max_concurrent=concurrency,
        restart_duration=restart_duration)
    start = cluster.engine.now
    # Run in slices until the upgrade completes (plus one restart's slack
    # so trailing failures land in the window).
    while not upgrade.done and cluster.engine.now < start + horizon:
        cluster.run(until=cluster.engine.now + 60.0)
    cluster.run(until=cluster.engine.now + restart_duration)

    duration = ((upgrade.finished_at - upgrade.started_at)
                if upgrade.finished_at is not None else float("inf"))
    # Success rate over the upgrade window only (the figure's x-range).
    window_end = (upgrade.finished_at if upgrade.finished_at is not None
                  else cluster.engine.now)
    ok_total, failed_total = 0.0, 0.0
    for bucket in recorder.success.buckets():
        bucket_time = (bucket + 0.5) * recorder.success.width
        if start <= bucket_time <= window_end + restart_duration:
            ok, failed = recorder.success.totals(bucket)
            ok_total += ok
            failed_total += failed
    return UpgradeArm(
        label=label,
        success_rate=ok_total / max(1, ok_total + failed_total),
        upgrade_duration=duration,
        # Fluid counts are expectations (fractional); round for the report.
        requests_sent=int(round(recorder.sent)),
        requests_failed=int(round(recorder.failed)),
        success_series=recorder.success.series(),
        shard_moves=app.orchestrator.executor.stats.total_moves,
    )


def run(**sizes: Any) -> Fig17Result:
    """Every arm at the same sizes and seed (:func:`run_arm`'s keywords;
    its defaults are the figure)."""
    return Fig17Result(arms={arm: run_arm(arm, **sizes) for arm in ARMS})


def headline(arm: UpgradeArm) -> Dict[str, Any]:
    """The sweep report's numbers for one arm."""
    return {"success_rate": arm.success_rate,
            "upgrade_duration": arm.upgrade_duration,
            "requests_failed": arm.requests_failed,
            "shard_moves": arm.shard_moves}


def format_report(result: Fig17Result) -> str:
    lines = ["Figure 17 — request success rate during a rolling upgrade",
             "",
             f"{'arm':45s} {'success':>9s} {'upgrade(s)':>11s} "
             f"{'failed':>7s} {'moves':>6s}"]
    for arm in result.arms.values():
        lines.append(
            f"{arm.label:45s} {arm.success_rate:9.4f} "
            f"{arm.upgrade_duration:11.0f} {arm.requests_failed:7d} "
            f"{arm.shard_moves:6d}")
    lines.append("")
    lines.append("paper shapes: SM ~100%; no-graceful ~98%; neither <90% "
                 "and finishes earliest (800 s vs 1,500 s)")
    lines.append("")
    lines.append("SM arm success-rate series:")
    lines.append(series_rows(result.sm.success_series,
                             value_label="success rate"))
    return "\n".join(lines)
