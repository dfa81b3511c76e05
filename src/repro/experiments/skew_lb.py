"""Hot-key skew vs placement policy: SM solver against §2.2.1 baselines.

Three arms share one cluster recipe, one Zipfian point-read workload,
one scatter-gather workload, and the identical orchestrator/migration
machinery — they differ *only* in the allocator:

* ``sm`` — the ordinary load-based solver balancing measured
  ``request_rate`` (the paper's LB loop);
* ``consistent_hash`` — :class:`~repro.baselines.PinnedAllocator` with a
  consistent-hash ring placement;
* ``static`` — :class:`~repro.baselines.PinnedAllocator` with modulo
  placement (static sharding).

Every application server runs a deterministic FIFO queue
(:class:`~repro.app.scatter.QueuedServiceHandler`), so a server hosting
more than its share of hot shards queues and its latency grows — the
baselines' blindness to load becomes visible as P99, not just as a
counter.  Halfway through, the sampler's hot set rotates to different
shards: SM re-solves and moves shards (counted); the pinned arms cannot
react by construction.

Reported per arm: point-read and scatter P99 latency, steady-state load
imbalance (max/mean per-server request rate), shard moves, journal
behaviour digest (bit-identical across same-seed runs) and
TraceChecker violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..app.scatter import QueuedServiceHandler, ScatterGatherClient, \
    queued_handler_factory
from ..app.client import WorkloadRecorder
from ..baselines import PinnedAllocator, modulo_placement, ring_placement
from ..core.orchestrator import OrchestratorConfig
from ..core.spec import (
    AppSpec,
    ReplicationStrategy,
    uniform_shards,
)
from ..harness import SimCluster, deploy_app
from ..metrics.timeseries import TimeSeries, percentile
from ..obs import Observability, TraceChecker, use
from ..sim.engine import every
from ..sim.rng import substream
from ..solver.local_search import SearchConfig

ARMS: Tuple[str, ...] = ("sm", "consistent_hash", "static")

#: Recorder bucket width and imbalance sampling period, seconds.
SAMPLE_INTERVAL = 30.0

#: Fraction of the run after which the hot set rotates.
SHIFT_AT = 0.5

# The experiment's cell.
SERVERS = 12
SHARDS = 48
KEYS_PER_SHARD = 16
KEY_SPACE = SHARDS * KEYS_PER_SHARD
SKEW = 1.4                     # Zipf exponent of the point reads
DURATION = 600.0               # workload length, seconds
SETTLE = 60.0                  # before the workload starts
WARMUP = 60.0                  # excluded from latency percentiles
REQUEST_RATE = 120.0           # point reads / second
SCATTER_RATE = 10.0            # scatter requests / second
FANOUT = 4
SERVICE_TIME = 0.015           # seconds per request on a server


def _coprime_stride() -> int:
    """Coprime stride spreading consecutive Zipf ranks one-per-shard
    (rank r maps to shard ~r), so the hot *set* spans many shards and
    placement — not sharding granularity — decides who queues."""
    stride = KEYS_PER_SHARD + 1
    while math.gcd(stride, KEY_SPACE) != 1:
        stride += 1
    return stride


@dataclass
class ArmResult:
    arm: str
    p99: float                # point-read P99 latency, seconds
    p50: float
    scatter_p99: float        # scatter (max-of-K legs) P99, seconds
    imbalance: float          # steady-state max/mean per-server req rate
    moves: int                # shard moves executed by the orchestrator
    digest: str               # journal behaviour digest (tier-1 pin)
    violations: int           # TraceChecker violations (must be 0)
    sent: int
    succeeded: int
    failed: int


def _allocator_for(arm: str, spec: AppSpec) -> Optional[PinnedAllocator]:
    if arm == "consistent_hash":
        return PinnedAllocator(spec, ring_placement())
    if arm == "static":
        return PinnedAllocator(spec, modulo_placement)
    if arm == "sm":
        return None  # keep the orchestrator's load-based solver
    raise ValueError(f"unknown arm {arm!r}; known: {', '.join(ARMS)}")


def run_arm(arm: str, seed: int = 0,
            duration: float = DURATION) -> ArmResult:
    """Run one arm under its own private observability context."""
    from ..workloads.load import ZipfKeySampler

    obs = Observability()
    with use(obs):
        cluster = SimCluster.build(
            regions=("prod",),
            machines_per_region=SERVERS,
            seed=seed,
            capacity={
                # Per-server request-rate capacity with ~30% headroom over
                # the fair share, so the solver has room to isolate heat.
                "request_rate": 1.3 * (REQUEST_RATE + SCATTER_RATE * FANOUT)
                / SERVERS / 0.7,
                "shard_count": 1000.0,
            },
        )
        spec = AppSpec(
            name="skew",
            shards=uniform_shards(SHARDS, key_space=KEY_SPACE,
                                  replica_count=1),
            replication=ReplicationStrategy.PRIMARY_ONLY,
            lb_metrics=("request_rate", "shard_count"),
            utilization_threshold=0.85,
            balance_band=0.1,
            spread_levels=(),
        )
        handlers: Dict[str, QueuedServiceHandler] = {}
        app = deploy_app(
            cluster, spec, {"prod": SERVERS},
            handler_factory=queued_handler_factory(
                cluster, SERVICE_TIME, registry=handlers),
            orchestrator_config=OrchestratorConfig(
                load_poll_interval=10.0,
                rebalance_interval=30.0,
                failover_grace=60.0,
                search_config=SearchConfig(rng_seed=seed),
            ),
            settle=0.0,
        )
        pinned = _allocator_for(arm, spec)
        if pinned is not None:
            app.orchestrator.allocator = pinned

        engine = cluster.engine
        cluster.run(until=engine.now + SETTLE)

        sampler = ZipfKeySampler(KEY_SPACE, skew=SKEW,
                                 stride=_coprime_stride())
        engine.call_at(engine.now + SHIFT_AT * duration,
                       sampler.rotate, KEY_SPACE // 3)

        point_recorder = WorkloadRecorder.with_bucket(SAMPLE_INTERVAL)
        scatter_recorder = WorkloadRecorder.with_bucket(SAMPLE_INTERVAL)
        client = app.client(cluster, "prod", name="skew-client")
        scatter_client = ScatterGatherClient(
            app.client(cluster, "prod", name="skew-scatter"),
            KEY_SPACE, fanout=FANOUT)

        workload_rng = substream(seed, "skew-workload", arm)
        scatter_rng = substream(seed, "skew-scatter", arm)
        client.run_workload(duration, lambda t: REQUEST_RATE,
                            sampler, point_recorder, rng=workload_rng)
        scatter_client.run_workload(
            duration, lambda t: SCATTER_RATE,
            lambda rng: rng.randrange(KEY_SPACE),
            scatter_recorder, rng=scatter_rng)

        # Per-server request-rate imbalance sampled from the live queue
        # handlers (ground truth, not the orchestrator's possibly stale
        # load reports).
        imbalance = TimeSeries(name="imbalance")
        previous: Dict[str, int] = {a: h.served for a, h in handlers.items()}

        def sample() -> None:
            rates: List[float] = []
            for address in sorted(handlers):
                handler = handlers[address]
                rates.append((handler.served - previous[address])
                             / SAMPLE_INTERVAL)
                previous[address] = handler.served
            mean = sum(rates) / len(rates) if rates else 0.0
            if mean > 0.0:
                imbalance.record(engine.now, max(rates) / mean)

        every(engine, SAMPLE_INTERVAL, sample)
        cluster.run(until=engine.now + duration + 5.0)
        client.close()
        scatter_client.client.close()

        measure_from = SETTLE + WARMUP
        violations = TraceChecker(obs.journal).check()
        digest = obs.journal.behaviour_digest()

    steady = [v for t, v in imbalance if t >= measure_from]
    return ArmResult(
        arm=arm,
        p99=_tail(point_recorder.latency, measure_from, 99.0),
        p50=_tail(point_recorder.latency, measure_from, 50.0),
        scatter_p99=_tail(scatter_recorder.latency, measure_from, 99.0),
        imbalance=(sum(steady) / len(steady)) if steady else 0.0,
        moves=app.orchestrator.move_counter.total,
        digest=digest,
        violations=len(violations),
        sent=point_recorder.sent + scatter_recorder.sent,
        succeeded=int(point_recorder.succeeded + scatter_recorder.succeeded),
        failed=int(point_recorder.failed + scatter_recorder.failed),
    )


def _tail(latency: TimeSeries, measure_from: float, q: float) -> float:
    values = [v for t, v in latency if t >= measure_from]
    return percentile(values, q) if values else 0.0


def run(seed: int = 0) -> Dict[str, ArmResult]:
    """All three arms at the same seed (each with a private journal)."""
    return {arm: run_arm(arm, seed) for arm in ARMS}


def format_report(results: Dict[str, ArmResult]) -> str:
    lines = [
        "Hot-key skew: SM load-based placement vs §2.2.1 baselines",
        f"  {'arm':<16} {'p99 ms':>9} {'p50 ms':>9} {'scatter p99':>12} "
        f"{'imbalance':>10} {'moves':>6} {'viol':>5}",
    ]
    for arm in ARMS:
        if arm not in results:
            continue
        r = results[arm]
        lines.append(
            f"  {arm:<16} {r.p99 * 1e3:>9.1f} {r.p50 * 1e3:>9.1f} "
            f"{r.scatter_p99 * 1e3:>12.1f} {r.imbalance:>10.2f} "
            f"{r.moves:>6} {r.violations:>5}")
    return "\n".join(lines)
