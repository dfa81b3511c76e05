"""Figure 17: SM upholds availability during software upgrades.

Paper setup: "We deploy a primary-only application with 10,000 shards on
60 servers.  The application's configuration allows up to 10% of its
containers to be restarted concurrently during a rolling upgrade."

The timeline is :func:`repro.chaos.fig17_spec`, run under the three arms
of :data:`repro.chaos.ARMS`:

1. **SM** (``sm``) — the TaskController negotiates restarts, shards drain
   by the §4.3 zero-drop migration → success ≈100%, the upgrade takes the
   longest (paper ≈1,500 s);
2. **no graceful migration** (``no_graceful``) — primaries move by a
   drop-then-add handoff; requests racing the map update fail → ≈98%;
3. **neither** (``baseline``) — blind restarts; shards are down for each
   whole restart → success < 90%, but the upgrade ends first (≈800 s).

Sizes are scaled down ~5x by default (2,000 shards on 60 servers) with
the paper's 10% restart concurrency kept; pass ``shards=10_000`` for the
full-size run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..chaos import ScenarioRun, fig17_spec
from ..metrics.timeseries import TimeSeries
from ..obs import get_default
from ..workloads.load import ConstantCurve
from .common import series_rows

#: Fluid epoch of the ``traffic="fluid"`` arm, simulated seconds.
FLUID_EPOCH = 2.0
#: The longest the upgrade may run (the scenario's duration), sim seconds.
HORIZON = 4_000.0


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


#: The three lines of Figure 17: arm -> (label, the ``repro.chaos`` arm
#: it runs under).
ARMS: Dict[str, Tuple[str, str]] = {
    "sm": ("SM", "sm"),
    "no_graceful_migration": ("no graceful migration", "no_graceful"),
    "no_graceful_no_taskcontroller": (
        "no graceful migration & no TaskController", "baseline"),
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
    label, chaos_arm = ARMS[arm]
    # The scenario's client is single-attempt (retries would mask the
    # drops this figure measures); the fluid arm brings flows instead.
    spec = fig17_spec(
        shards=shards, servers=servers, restart_duration=restart_duration,
        request_rate=request_rate if traffic == "event" else 0.0,
        duration=HORIZON)
    run = ScenarioRun(spec, chaos_arm, seed, get_default())
    run.start()
    if traffic == "fluid":
        # Same workload as flows: the epoch must sit under the discovery
        # fan-out window (2–5 s here) so map-staleness failures resolve
        # on the same timescale the per-request path sees them.
        run.app.fluid_client(run.cluster, "FRC").run_workload(
            duration=spec.duration, rate=ConstantCurve(request_rate),
            recorder=run.recorder, epoch=FLUID_EPOCH)
    # Run in slices until the upgrade completes (plus one restart's slack
    # so trailing failures land in the window).
    engine = run.engine
    while (not any(upgrade.done for upgrade in run.upgrades)
           and engine.now < run.t0 + spec.duration):
        run.cluster.run(until=engine.now + 60.0)
    run.cluster.run(until=engine.now + restart_duration)
    run.finish()

    upgrade, recorder = run.upgrades[0], run.recorder
    finished = upgrade.finished_at
    duration = (finished - upgrade.started_at if finished is not None
                else float("inf"))
    # Success rate over the upgrade window only (the figure's x-range).
    window_end = finished if finished is not None else engine.now
    ok_total, failed_total = 0.0, 0.0
    for bucket in recorder.success.buckets():
        bucket_time = (bucket + 0.5) * recorder.success.width
        if run.t0 <= bucket_time <= window_end + restart_duration:
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
        shard_moves=run.app.orchestrator.executor.stats.total_moves,
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
