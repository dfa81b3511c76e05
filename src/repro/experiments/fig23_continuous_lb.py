"""Figure 23: load balancing as a continuous-optimization process.

"It plots the CPU utilization, number of LB violations, and number of
shard moves of a ZippyDB deployment, which all follow a diurnal pattern.
... a small number of new violations constantly emerge on different
servers due to the large system size and the ever-changing load ...
Despite the constant load changes, LB consistently keeps the P99 CPU
utilization under 80%."

We deploy a ZippyDB-like primary-secondary application whose per-shard
CPU load follows per-shard diurnal curves (distinct phases and
amplitudes, plus noise), let the orchestrator's periodic rebalancing run
for three scaled days, and sample the figure's three curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from ..core.orchestrator import OrchestratorConfig
from ..core.spec import (
    AppSpec,
    ReplicationStrategy,
    uniform_shards,
)
from ..harness import SimCluster, deploy_app
from ..metrics.timeseries import TimeSeries, percentile
from ..sim.engine import every
from ..sim.rng import substream
from ..solver.local_search import SearchConfig
from .common import series_rows

#: ZippyDB-like: three replicas a shard.
REPLICA_COUNT = 3
#: A compressed day, in simulated seconds.
DAY_LENGTH = 3_600.0
#: Fleet-mean CPU utilization the per-shard loads are sized to.
MEAN_UTILIZATION = 0.45
#: Utilization / violation / move sampling period, seconds.
SAMPLE_INTERVAL = 120.0


@dataclass
class Fig23Result:
    avg_cpu: TimeSeries
    p99_cpu: TimeSeries
    violations: TimeSeries
    shard_moves: TimeSeries
    days: float

    def max_p99(self) -> float:
        return self.p99_cpu.max()

    def total_moves(self) -> int:
        return int(sum(v for _t, v in self.shard_moves))

    def violation_buckets(self) -> int:
        """How many samples saw at least one violation (they 'constantly
        emerge')."""
        return sum(1 for _t, v in self.violations if v > 0)


def run(servers: int = 30, shards: int = 200, days: float = 3.0,
        seed: int = 0) -> Fig23Result:
    rng = substream(seed, "fig23")
    cluster = SimCluster.build(
        regions=("prod",),
        machines_per_region=servers + 2,
        seed=seed,
        capacity={"cpu": 100.0, "storage": 100.0, "shard_count": 1000.0},
        capacity_jitter=0.2,
    )
    spec = AppSpec(
        name="fig23",
        shards=uniform_shards(shards, key_space=shards * 8,
                              replica_count=REPLICA_COUNT),
        replication=ReplicationStrategy.PRIMARY_SECONDARY,
        lb_metrics=("cpu", "storage", "shard_count"),
        utilization_threshold=0.85,
        balance_band=0.07,
        spread_levels=(),
    )

    # Per-shard diurnal CPU loads.  The diurnal phase is *global* (user
    # activity is fleet-wide correlated); shards differ in magnitude
    # (log-normal skew), amplitude, and a small phase jitter — which is
    # what makes new violations keep emerging on different servers.
    engine = cluster.engine
    total_capacity = servers * 100.0
    base_per_replica = (MEAN_UTILIZATION * total_capacity
                        / (shards * REPLICA_COUNT))
    raw_scales = [rng.lognormvariate(0.0, 0.6) for _ in range(shards)]
    scale_norm = len(raw_scales) / sum(raw_scales)
    shard_params: Dict[str, tuple] = {}
    for index in range(shards):
        scale = raw_scales[index] * scale_norm
        amplitude = rng.uniform(0.3, 0.5)
        phase_jitter = rng.uniform(-0.05, 0.05) * DAY_LENGTH
        storage = base_per_replica * rng.uniform(0.5, 1.5)
        # Slow per-shard popularity drift (incommensurate period per
        # shard): load keeps redistributing *between* shards, which is
        # what makes "a small number of new violations constantly emerge
        # on different servers" (§8.4).
        drift_period = DAY_LENGTH * rng.uniform(1.3, 2.9)
        drift_phase = rng.uniform(0.0, drift_period)
        shard_params[f"shard{index}"] = (scale, amplitude, phase_jitter,
                                         storage, drift_period, drift_phase)

    def cpu_load(shard_id: str, time: float) -> float:
        (scale, amplitude, phase_jitter, _storage,
         drift_period, drift_phase) = shard_params[shard_id]
        wave = 1.0 + amplitude * math.sin(
            2.0 * math.pi * (time - phase_jitter) / DAY_LENGTH)
        drift = 1.0 + 0.25 * math.sin(
            2.0 * math.pi * (time - drift_phase) / drift_period)
        return base_per_replica * scale * wave * drift

    noise_rng = substream(seed, "fig23-noise")

    def base_loads(shard_id: str) -> Dict[str, float]:
        jitter = 1.0 + noise_rng.uniform(-0.05, 0.05)
        return {"cpu": cpu_load(shard_id, engine.now) * jitter,
                "storage": shard_params[shard_id][3]}

    # Average drift factor is 1.0 per shard over time, but instantaneous
    # totals wobble; keep the fleet mean near the target by folding the
    # drift's mean into base (documented approximation).

    orchestrator_config = OrchestratorConfig(
        load_poll_interval=30.0,
        rebalance_interval=60.0,
        failover_grace=120.0,
        search_config=SearchConfig(rng_seed=seed),
    )
    app = deploy_app(cluster, spec, {"prod": servers},
                     base_loads=base_loads,
                     orchestrator_config=orchestrator_config,
                     settle=120.0)
    orchestrator = app.orchestrator

    avg_cpu = TimeSeries(name="avg_cpu")
    p99_cpu = TimeSeries(name="p99_cpu")
    violations = TimeSeries(name="violations")

    def sample() -> None:
        """True utilization from the live load functions (not the possibly
        stale reports the orchestrator balances on)."""
        usage: Dict[str, float] = {}
        for replica in orchestrator.table.all_replicas():
            if not replica.available:
                continue
            usage[replica.address] = (usage.get(replica.address, 0.0)
                                      + cpu_load(replica.shard_id, engine.now))
        utils: List[float] = []
        for address, record in orchestrator.servers.items():
            if not record.alive:
                continue
            capacity = record.machine.capacity.get("cpu", 100.0)
            utils.append(usage.get(address, 0.0) / capacity)
        if not utils:
            return
        mean_util = sum(utils) / len(utils)
        over_threshold = sum(1 for u in utils if u > 0.9)
        over_band = sum(1 for u in utils if u > mean_util + 0.1)
        now = engine.now
        avg_cpu.record(now, mean_util)
        p99_cpu.record(now, percentile(utils, 99.0))
        violations.record(now, over_threshold + over_band)

    every(engine, SAMPLE_INTERVAL, sample)
    cluster.run(until=engine.now + days * DAY_LENGTH)

    # The paper's violations curve is SM's own instrumentation: what the
    # allocator saw at each rebalance.  Merge it with externally sampled
    # violations (whichever is higher is the honest count).
    solver_seen = TimeSeries(name="violations")
    history = iter(orchestrator.rebalance_history)
    entry = next(history, None)
    for index, time in enumerate(violations.times):
        seen = 0
        while entry is not None and entry[0] <= time:
            seen = max(seen, entry[1] or 0)
            entry = next(history, None)
        solver_seen.record(time, max(seen, violations.values[index]))

    return Fig23Result(
        avg_cpu=avg_cpu,
        p99_cpu=p99_cpu,
        violations=solver_seen,
        shard_moves=orchestrator.move_counter.windowed(SAMPLE_INTERVAL),
        days=days,
    )


def headline(result: Fig23Result) -> Dict[str, float]:
    """The sweep report's numbers for this figure."""
    return {"max_p99": result.max_p99(),
            "total_moves": result.total_moves()}


def format_report(result: Fig23Result) -> str:
    lines = [
        "Figure 23 — continuous load balancing over diurnal load",
        f"  simulated days      : {result.days:.0f} (scaled)",
        f"  mean CPU util       : {result.avg_cpu.mean():.2f}",
        f"  max P99 CPU util    : {result.max_p99():.2f} (paper: < 0.80)",
        f"  samples w/ violations: {result.violation_buckets()} of "
        f"{len(result.violations)} (they keep emerging)",
        f"  total shard moves   : {result.total_moves()}",
        "",
        "P99 CPU utilization:",
        series_rows(result.p99_cpu, value_label="p99 util"),
    ]
    return "\n".join(lines)
