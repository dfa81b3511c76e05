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

The timeline is :func:`repro.chaos.fig20_spec`, whose ``prefer_region``
actions are the admin's preference updates.  The database is "not
managed by SM": the figure keeps its region table, moving each DBShard
``FIG20_REACT`` seconds before the update that follows it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chaos import FIG20_BATCHES, FIG20_REACT, ScenarioRun, fig20_spec
from ..metrics.timeseries import Counter, TimeSeries
from ..obs import get_default
from ..sim.engine import every
from .common import series_rows

#: Latency sampling period, seconds.
SAMPLE_INTERVAL = 10.0


@dataclass
class Fig20Result:
    latency: TimeSeries           # mean AppShard<->DBShard latency (ms)
    app_shard_moves: TimeSeries   # SM migrations per bucket
    db_shard_moves: TimeSeries    # admin-initiated moves per bucket
    batches: int

    def latency_at(self, time: float) -> float:
        return self.latency.value_at(time)


def run(seed: int = 0) -> Fig20Result:
    spec = fig20_spec()
    run = ScenarioRun(spec, "sm", seed, get_default())
    orchestrator, start = run.app.orchestrator, run.t0
    servers, latency_of = orchestrator.servers, run.cluster.network.latency
    db_region = dict(enumerate(spec.preferred_regions))   # DBShard i's
    pending = list(spec.actions)
    latency = TimeSeries(name="app_db_latency_ms")
    db_moves = TimeSeries(name="db_moves")

    def sample() -> None:
        now = run.engine.now - start
        due = [act for act in pending if act.at - FIG20_REACT <= now]
        for act in due:
            db_region[act.param("shard")] = act.param("region")
            pending.remove(act)
        if due:
            db_moves.record(now, len(due))
        pairs = []
        for index, region in db_region.items():
            ready = [r for r in orchestrator.table.replicas_of(f"shard{index}")
                     if r.available and r.address in servers]
            if ready:
                pairs.append(latency_of.base_latency(
                    servers[ready[0].address].machine.region, region))
        latency.record(now, 1000.0 * sum(pairs) / max(1, len(pairs)))

    every(run.engine, SAMPLE_INTERVAL, sample)
    run.start()
    run.cluster.run(until=start + spec.duration)
    run.finish()
    # Moves on the figure's clock, like its other two series.
    moves = Counter(name=orchestrator.move_counter.name)
    for time, _count in orchestrator.move_counter.events:
        moves.add(time - start)
    return Fig20Result(latency=latency, app_shard_moves=moves.windowed(60.0),
                       db_shard_moves=db_moves, batches=len(FIG20_BATCHES))


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
