"""Figure 19: cross-region failover and fail-back of a geo-distributed app.

Paper setup: "we deploy a secondary-only application with 1,000 shards
and two replicas per shard across three regions located at FRC (east
coast ...), PRN (west coast ...) and ODN (Odense, Denmark), using 30
servers per region.  Out of the 1,000 shards, 400 so-called east-coast
(EC) shards are configured with a region preference for FRC".

The timeline is :func:`repro.chaos.fig19_spec`, 1:1 with the paper: an
FRC client reads EC shards locally until FRC fails at t=90 s; requests
fail over to PRN/ODN (a retry spike, then a cross-region plateau) while
SM recreates the lost replicas; FRC recovers at t=450 s and SM moves one
replica of each EC shard back (region preference), restoring locality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

from ..chaos import ScenarioRun, fig19_spec
from ..metrics.timeseries import TimeSeries
from ..obs import get_default
from ..sim.rng import substream
from .common import series_rows

#: The timeline, simulated seconds from the start of the workload: the
#: region outage of :func:`repro.chaos.fig19_spec`.
_OUTAGE = fig19_spec().actions[0]
FAILURE_TIME = _OUTAGE.at
RECOVERY_TIME = _OUTAGE.at + _OUTAGE.duration
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


def _placed_regions(app, index: int) -> Set[Tuple[str, bool]]:
    """(region, alive) of each known server holding shard ``index``."""
    servers = app.orchestrator.servers
    return {(servers[r.address].machine.region, servers[r.address].alive)
            for r in app.orchestrator.table.replicas_of(f"shard{index}")
            if r.address in servers}


def _ec_shards_in_frc(app, ec_shards: int) -> int:
    return sum(("FRC", True) in _placed_regions(app, index)
               for index in range(ec_shards))


def run(shards: int = 1_000, ec_shards: int = 400,
        servers_per_region: int = 30, request_rate: float = 20.0,
        seed: int = 0) -> Fig19Result:
    # The figure's client replaces the scenario's: it retries, reads
    # secondaries and reads EC keys only.
    spec = fig19_spec(shards=shards, ec_shards=ec_shards,
                      servers_per_region=servers_per_region,
                      request_rate=0.0)
    run = ScenarioRun(spec, "sm", seed, get_default())
    app = run.app
    before_frc = _ec_shards_in_frc(app, ec_shards)
    before_spread = sum(
        len({region for region, _ in _placed_regions(app, index)}) >= 2
        for index in range(shards))

    recorder, start = run.recorder, run.t0
    ec_key_limit = app.spec.shards[ec_shards - 1].key_range.high
    app.client(run.cluster, "FRC").run_workload(
        duration=spec.duration, rate=lambda t: request_rate,
        key_fn=lambda rng: rng.randrange(ec_key_limit),  # EC shards only
        recorder=recorder, rng=substream(seed, "fig19", "workload"),
        prefer_primary=False)
    run.start()
    run.cluster.run(until=start + spec.duration)
    run.finish()

    # Bucketed mean latency relative to the experiment start, in ms.
    sums: Dict[int, Tuple[float, int]] = {}
    for time, latency in recorder.latency:
        index = int((time - start) // BUCKET)
        total, count = sums.get(index, (0.0, 0))
        sums[index] = (total + latency, count + 1)
    latency_series = TimeSeries(name="ec_latency_ms")
    for index in sorted(sums):
        total, count = sums[index]
        latency_series.record((index + 0.5) * BUCKET, 1000.0 * total / count)

    return Fig19Result(
        latency_by_bucket=latency_series,
        success_rate=recorder.success.overall_success_rate(),
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
