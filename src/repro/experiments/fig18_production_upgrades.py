"""Figure 18: production view — no client errors during daily upgrades.

"Facebook's instant-messaging product uses a queue service to guarantee
in-order message delivery ...  The service does a rolling upgrade every
weekday.  It starts with small-scale upgrades, which cause the small
spikes in the 'shard moves' curve ... after three hours, it progresses
to full-scale upgrades, which cause the big spikes.  Despite the large
number of concurrent shard moves, the 'client error rate' curve hardly
changes."

The queue service runs :func:`repro.chaos.fig18_spec` (each scaled day,
a canary restart, then a rolling upgrade of the fleet) under diurnal
traffic; the figure's curves are request rate, error rate, shard moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..app.client import WorkloadRecorder
from ..apps.queue_service import QueueServiceApp
from ..chaos import ScenarioRun, fig18_spec
from ..metrics.timeseries import TimeSeries
from ..obs import get_default
from ..sim.rng import substream
from ..workloads.load import DiurnalCurve
from .common import series_rows

#: The diurnal request curve's trough and peak, requests per second.
BASE_RATE = 10.0
PEAK_RATE = 40.0
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
    """``day_length`` compresses the diurnal period (1 h a simulated day
    by default).  ``traffic`` is the per-request path (``"event"``) or the
    hybrid fluid engine (``"fluid"``, flows advanced every ``FLUID_EPOCH``
    seconds); both fill the same recorder, so their curves compare."""
    if traffic not in ("event", "fluid"):
        raise ValueError(f"unknown traffic mode {traffic!r}")
    # The queue service's two-attempt enqueue client (or flows) replaces
    # the scenario's single-attempt one.
    spec = fig18_spec(shards=shards, servers=servers, day_length=day_length,
                      days=days, request_rate=0.0)
    queue_app = QueueServiceApp(spec.app_spec())
    scenario = ScenarioRun(spec, "sm", seed, get_default(),
                           handler_factory=queue_app.handler_factory)
    scenario.start()

    recorder = WorkloadRecorder.with_bucket(day_length / 48.0)
    curve = DiurnalCurve(base=BASE_RATE, peak=PEAK_RATE, period=day_length,
                         phase=day_length / 4.0)
    horizon = days * day_length
    if traffic == "fluid":
        scenario.app.fluid_client(scenario.cluster, "FRC").run_workload(
            duration=horizon, rate=curve, recorder=recorder,
            epoch=FLUID_EPOCH)
    else:
        key_space = spec.key_space
        client = scenario.app.client(scenario.cluster, "FRC", attempts=2,
                                     rpc_timeout=0.5, retry_backoff=0.2)
        client.run_workload(
            duration=horizon, rate=curve,
            key_fn=lambda rng: rng.randrange(key_space), recorder=recorder,
            rng=substream(seed, "fig18", "workload"),
            payload_fn=lambda key: {"op": "enqueue", "queue": key,
                                    "message": f"m{key}"})
    scenario.cluster.run(until=scenario.t0 + spec.duration)
    scenario.finish()

    # Derive the three curves, bucketed like the figure.
    bucket = recorder.success.width
    request_rate = TimeSeries(name="request_rate")
    error_rate = TimeSeries(name="error_rate")
    for index in recorder.success.buckets():
        ok, failed = recorder.success.totals(index)
        request_rate.record((index + 0.5) * bucket, ok + failed)
        error_rate.record((index + 0.5) * bucket,
                          failed / max(1, ok + failed))
    moves = scenario.app.orchestrator.move_counter.windowed(bucket)

    return Fig18Result(
        request_rate=request_rate,
        error_rate=error_rate,
        shard_moves=moves,
        overall_error_rate=recorder.failed / max(
            1, recorder.succeeded + recorder.failed),
        order_violations=queue_app.order_violations,
        upgrades_run=len(scenario.upgrades) + days,  # + a canary a day
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
