"""The seven benchmark workloads, built from the harness-level public API.

Each workload is a class with three steps the worker times separately:

``setup()``    build the cluster / map / problem up to the start of the
               measured region (its host time is part of ``setup_s``);
``run()``      the measured region;
``outcome()``  counts, simulated results and correctness checks, taken
               after the region from the layers' public counters.

``setup()`` and ``run()`` are generators: every ``yield`` ends one *slice*,
a stretch of work that is identical in every unit of the same seed, and
names it (``run.py`` times slices, not regions — ``calibrate.py`` says
why).  Slices of one name add up to a phase the catalogue can quote.

Sizes are frozen in each class's ``PARAMS`` (``QUICK`` overrides them for
the self-test).  They were tuned so one unit's measured region takes
about two seconds on the reference box: the driver makes 158 runs of
this benchmark inside one hour, each run repeats a unit several times in
fresh interpreters, and the sizes ISSUE 11 started from (8–15 s regions)
do not fit that cap.  Nothing here calls ``repro.experiments``, whose
defaults later changes may retune.

Every simulated client is an **open loop**: Poisson arrivals at a fixed
rate scheduled in simulated time, latency taken from the scheduled send.
A simulated generator cannot run late, so no lateness figure exists.
"""

from __future__ import annotations

import math
import random
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.app.client import WorkloadRecorder
from repro.app.scatter import ScatterGatherClient, queued_handler_factory
from repro.chaos import ACTIONS, FaultAction, ScenarioSpec
from repro.chaos.scenario import ScenarioRun
from repro.cluster.twine import TwineConfig
from repro.core.mini_sm import (ApplicationManager, ApplicationRegistry,
                                Frontend, PartitionRegistry)
from repro.core.orchestrator import OrchestratorConfig
from repro.core.shard_map import (AssignmentTable, ReplicaState, Role,
                                  delta_wire_bytes, map_wire_bytes)
from repro.core.spec import (AppSpec, LoadBalancePolicy, ReplicationStrategy,
                             uniform_shards)
from repro.core.task_controller import SMTaskControllerConfig
from repro.discovery.router import ServiceRouter
from repro.discovery.service_discovery import ServiceDiscovery
from repro.harness import SimCluster, deploy_app
from repro.metrics.timeseries import percentile
from repro.obs import NO_OBS, Observability, TraceChecker, use
from repro.sim.engine import Engine
from repro.sim.fluid import EpochDriver
from repro.sim.network import Network
from repro.sim.rng import substream
from repro.solver.local_search import SearchConfig
from repro.workloads import (PAPER_SCALES, ConstantCurve, DiurnalCurve,
                             ZipfKeySampler, attach_zippydb_goals, scaled,
                             zippydb_snapshot)

#: Host wall-clock budget handed to every solve.  ``time_budget`` is host
#: time, so a solve that exhausts it makes simulated results depend on
#: host speed; every solve here needs well under a second.
SOLVER_BUDGET_S = 600.0

#: Slices per event-driven region: ~25 ms of host time each at full size.
SIM_SLICES = 80

Check = Tuple[str, bool, str]


def _ms_tail(latency, after: float, pct: float) -> Tuple[float, int]:
    """Percentile (ms) of the samples recorded at or after ``after``."""
    values = [v for t, v in latency if t >= after]
    if not values:
        return 0.0, 0
    return percentile(values, pct) * 1e3, len(values)


def _router_counts(routers: List[ServiceRouter]) -> Dict[str, int]:
    return {
        "discovery.router.requests": sum(r.requests_started for r in routers),
        "discovery.router.retries": sum(r.retries for r in routers),
        "discovery.router.misroutes": sum(r.misroutes for r in routers),
        "discovery.router.route_cache_hits":
            sum(r.route_cache_hits for r in routers),
        "discovery.router.route_cache_misses":
            sum(r.route_cache_misses for r in routers),
        "discovery.router.route_evictions":
            sum(r.route_evictions for r in routers),
        "discovery.router.map_updates": sum(r.map_updates for r in routers),
    }


def _migration_counts(orchestrator) -> Dict[str, int]:
    stats = orchestrator.executor.stats
    return {
        "core.orchestrator.publishes": orchestrator.publishes,
        "core.migration.moves": stats.total_moves,
        "core.migration.graceful": stats.graceful_migrations,
        "core.migration.failures": stats.failures,
    }


class Workload:
    """Base: frozen parameters plus the bookkeeping every workload shares."""

    name = ""
    op = ""
    PARAMS: Dict[str, Any] = {}
    QUICK: Dict[str, Any] = {}

    def __init__(self, seed: int, quick: bool = False,
                 variant: str = "") -> None:
        self.seed = seed
        self.variant = variant
        self.p: Dict[str, Any] = dict(self.PARAMS)
        if quick:
            self.p.update(self.QUICK)

    def setup(self) -> Iterator[str]:
        raise NotImplementedError

    def run(self) -> Iterator[str]:
        raise NotImplementedError

    def outcome(self) -> Dict[str, Any]:
        raise NotImplementedError

    # -- helpers for the event workloads -------------------------------------

    def _run_sliced(self, cluster: SimCluster, until: float) -> Iterator[str]:
        """Advance the cluster to ``until`` in SIM_SLICES equal steps of
        simulated time.  ``Engine.run(until=...)`` calls tile time, so the
        simulation is the same as one long run."""
        start = cluster.engine.now
        for step in range(1, SIM_SLICES + 1):
            cluster.run(until=start + (until - start) * step / SIM_SLICES)
            yield "sim"

    def _mark(self, cluster: SimCluster) -> None:
        """Remember the counters at the start of the measured region."""
        self._cluster = cluster
        self._events0 = cluster.engine.processed_events
        self._rpcs0 = cluster.network.rpcs_sent
        self._rpcs_failed0 = cluster.network.rpcs_failed
        self._publishes0 = cluster.discovery.publishes
        self._sim0 = cluster.engine.now

    def _cluster_counts(self) -> Dict[str, int]:
        cluster = self._cluster
        twines = cluster.twines.values()
        return {
            "sim.engine.events":
                cluster.engine.processed_events - self._events0,
            "sim.network.rpcs": cluster.network.rpcs_sent - self._rpcs0,
            "sim.network.rpcs_failed":
                cluster.network.rpcs_failed - self._rpcs_failed0,
            "discovery.service_discovery.publishes":
                cluster.discovery.publishes - self._publishes0,
            "cluster.twine.container_stops":
                sum(t.container_stops_planned + t.container_stops_unplanned
                    for t in twines),
        }


# -- 1. upgrade_event ---------------------------------------------------------

class UpgradeEvent(Workload):
    """Fig 17's SM arm: a rolling upgrade with graceful migration under
    an open loop of point reads.  The shard map churns for the whole
    region, so the engine, network, router evict/miss path, app server
    and the publish path (orchestrator persist -> ZooKeeper -> service
    discovery) all carry weight."""

    name = "upgrade_event"
    op = "simulated request completed"
    PARAMS = dict(shards=1600, servers=40, request_rate=24.0,
                  restart_duration=60.0, horizon=1380.0, attempts=1,
                  rpc_timeout=0.5, discovery_base_delay=1.0,
                  discovery_jitter=1.0, warmup=30.0)
    QUICK = dict(shards=200, servers=10, request_rate=20.0,
                 restart_duration=20.0, horizon=500.0)

    def setup(self) -> Iterator[str]:
        p = self.p
        servers = p["servers"]
        restart = p["restart_duration"]
        # Fig 17 fans maps out in 2-5 s; with that, about one request in
        # 40,000 times out on a route to a container that stopped a
        # moment after its last shard left.  The harness default (1-2 s,
        # 2.25 s with the publish interval) leaves a margin on both that
        # and the servers' 5 s forwarding grace: thirty seeds lost nothing,
        # so here any failed request is a regression.
        cluster = SimCluster.build(
            regions=("FRC",), machines_per_region=servers + 4,
            seed=self.seed,
            twine_config=TwineConfig(negotiation_interval=5.0),
            discovery_base_delay=p["discovery_base_delay"],
            discovery_jitter=p["discovery_jitter"])
        self.concurrency = max(1, servers // 10)  # the paper's 10 % cap
        spec = AppSpec(
            name="upgrade",
            shards=uniform_shards(p["shards"], key_space=p["shards"] * 16),
            replication=ReplicationStrategy.PRIMARY_ONLY,
            max_concurrent_container_ops=self.concurrency)
        self.app = deploy_app(
            cluster, spec, {"FRC": servers},
            orchestrator_config=OrchestratorConfig(
                graceful_migration=True, failover_grace=restart * 2.0,
                rebalance_interval=60.0, drain_concurrency=2,
                drain_pacing=2.0,
                search_config=SearchConfig(time_budget=SOLVER_BUDGET_S,
                                           rng_seed=self.seed)),
            controller_config=SMTaskControllerConfig(
                restart_duration_hint=restart * 2.0),
            settle=60.0)
        if self.app.ready_fraction() < 1.0:
            cluster.run(until=cluster.engine.now + 60.0)
        self.cluster = cluster
        self.spec = spec
        self.client = self.app.client(cluster, "FRC",
                                      attempts=p["attempts"],
                                      rpc_timeout=p["rpc_timeout"])
        cluster.run(until=cluster.engine.now + 1.0)  # first map delivered
        self.recorder = WorkloadRecorder.with_bucket(30.0)
        self.ready_at_start = self.app.ready_fraction()
        yield "deploy"

    def run(self) -> Iterator[str]:
        p = self.p
        cluster = self.cluster
        self._mark(cluster)
        key_space = p["shards"] * 16
        self.client.run_workload(
            duration=p["horizon"], rate=ConstantCurve(p["request_rate"]),
            key_fn=lambda rng: rng.randrange(key_space),
            recorder=self.recorder,
            rng=substream(self.seed, "bench", self.name))
        self.upgrade = cluster.twines["FRC"].start_rolling_upgrade(
            self.spec.name, max_concurrent=self.concurrency,
            restart_duration=p["restart_duration"])
        yield from self._run_sliced(cluster, self._sim0 + p["horizon"] + 5.0)

    def outcome(self) -> Dict[str, Any]:
        rec = self.recorder
        upgrade = self.upgrade
        p99, n = _ms_tail(rec.latency, self._sim0 + self.p["warmup"], 99.0)
        p50, _ = _ms_tail(rec.latency, self._sim0 + self.p["warmup"], 50.0)
        upgrade_s = ((upgrade.finished_at - upgrade.started_at)
                     if upgrade.finished_at is not None else 0.0)
        counts = self._cluster_counts()
        counts.update(_router_counts([self.client.router]))
        counts.update(_migration_counts(self.app.orchestrator))
        counts["app.client.sent"] = rec.sent
        checks: List[Check] = [
            ("ready_before_region", self.ready_at_start == 1.0,
             f"ready={self.ready_at_start:.3f}"),
            ("sent_equals_completed_plus_failed",
             rec.sent == rec.succeeded + rec.failed,
             f"{rec.sent} != {rec.succeeded} + {rec.failed}"),
            ("upgrade_finished_inside_region", upgrade.done,
             f"{upgrade.completed}/{upgrade.total} containers"),
            ("all_replicas_ready_after", self.app.ready_fraction() >= 1.0,
             f"ready={self.app.ready_fraction():.3f}"),
        ]
        return {
            "attempted": rec.sent, "failed": rec.failed,
            "ops": rec.succeeded,
            "sim": {"sim_p99_ms": p99, "sim_p50_ms": p50,
                    "sim_region_s": self.cluster.engine.now - self._sim0,
                    "sim_upgrade_s": upgrade_s},
            "samples": {"sim_p99_ms": n},
            "counts": counts, "host": {}, "checks": checks,
        }


# -- 2. skew_scatter ----------------------------------------------------------

class SkewScatter(Workload):
    """Zipf point reads plus scatter-gather on a *stable* map with FIFO
    service queues: the router's route-cache hit path, ``AsyncReply``
    replies and retries dominate; the allocator and solver run every 30
    simulated seconds inside the loop but cost under 1 % of wall."""

    name = "skew_scatter"
    op = "point read or scatter completed"
    # The rates are the ISSUE's (300 + 30 x 6 per second at 5 ms service)
    # divided by three with the service time multiplied by three: the
    # same utilisation profile (hottest key ~48 % of one server) from a
    # third of the events.
    PARAMS = dict(servers=24, shards=192, keys_per_shard=16, skew=1.4,
                  request_rate=100.0, scatter_rate=10.0, fanout=6,
                  service_time=0.015, duration=480.0, warmup=60.0,
                  attempts=3)
    QUICK = dict(servers=8, shards=48, request_rate=40.0, scatter_rate=4.0,
                 fanout=4, duration=150.0, warmup=30.0)

    def setup(self) -> Iterator[str]:
        p = self.p
        servers = p["servers"]
        key_space = p["shards"] * p["keys_per_shard"]
        stride = p["keys_per_shard"] + 1  # hot ranks one-per-shard
        while math.gcd(stride, key_space) != 1:
            stride += 1
        self.key_space = key_space
        cluster = SimCluster.build(
            regions=("prod",), machines_per_region=servers, seed=self.seed,
            capacity={
                "request_rate": 1.3 * (p["request_rate"]
                                       + p["scatter_rate"] * p["fanout"])
                / servers / 0.7,
                "shard_count": 1000.0})
        spec = AppSpec(
            name="skew",
            shards=uniform_shards(p["shards"], key_space=key_space),
            replication=ReplicationStrategy.PRIMARY_ONLY,
            lb_policy=LoadBalancePolicy.MULTI_METRIC,
            lb_metrics=("request_rate", "shard_count"),
            utilization_threshold=0.85, balance_band=0.1, spread_levels=())
        self.handlers: Dict[str, Any] = {}
        self.app = deploy_app(
            cluster, spec, {"prod": servers},
            handler_factory=queued_handler_factory(
                cluster, p["service_time"], registry=self.handlers),
            orchestrator_config=OrchestratorConfig(
                load_poll_interval=10.0, rebalance_interval=30.0,
                failover_grace=60.0,
                search_config=SearchConfig(time_budget=SOLVER_BUDGET_S,
                                           rng_seed=self.seed)),
            settle=60.0)
        self.cluster = cluster
        self.sampler = ZipfKeySampler(key_space, skew=p["skew"],
                                      stride=stride)
        self.client = self.app.client(cluster, "prod", name="skew-client",
                                      attempts=p["attempts"])
        self.scatter = ScatterGatherClient(
            self.app.client(cluster, "prod", name="skew-scatter",
                            attempts=p["attempts"]),
            key_space, fanout=p["fanout"])
        cluster.run(until=cluster.engine.now + 1.0)
        self.points = WorkloadRecorder.with_bucket(30.0)
        self.scatters = WorkloadRecorder.with_bucket(30.0)
        self.ready_at_start = self.app.ready_fraction()
        yield "deploy"

    def run(self) -> Iterator[str]:
        p = self.p
        cluster = self.cluster
        engine = cluster.engine
        self._mark(cluster)
        engine.call_at(engine.now + 0.5 * p["duration"],
                       self.sampler.rotate, self.key_space // 3)
        key_space = self.key_space
        self.client.run_workload(
            p["duration"], ConstantCurve(p["request_rate"]), self.sampler,
            self.points, rng=substream(self.seed, "bench", self.name, "point"))
        self.scatter.run_workload(
            p["duration"], ConstantCurve(p["scatter_rate"]),
            lambda rng: rng.randrange(key_space), self.scatters,
            rng=substream(self.seed, "bench", self.name, "scatter"))
        yield from self._run_sliced(cluster,
                                    engine.now + p["duration"] + 5.0)

    def outcome(self) -> Dict[str, Any]:
        points, scatters = self.points, self.scatters
        after = self._sim0 + self.p["warmup"]
        p99, n = _ms_tail(points.latency, after, 99.0)
        p50, _ = _ms_tail(points.latency, after, 50.0)
        fan99, fan_n = _ms_tail(scatters.latency, after, 99.0)
        sent = points.sent + scatters.sent
        ok = points.succeeded + scatters.succeeded
        failed = points.failed + scatters.failed
        counts = self._cluster_counts()
        counts.update(_router_counts([self.client.router,
                                      self.scatter.client.router]))
        counts.update(_migration_counts(self.app.orchestrator))
        counts["app.client.sent"] = points.sent
        counts["app.scatter.scatters"] = scatters.sent
        counts["app.scatter.legs"] = scatters.sent * self.p["fanout"]
        counts["app.server.requests_served"] = sum(
            h.served for h in self.handlers.values())
        checks: List[Check] = [
            ("ready_before_region", self.ready_at_start == 1.0,
             f"ready={self.ready_at_start:.3f}"),
            ("sent_equals_completed_plus_failed", sent == ok + failed,
             f"{sent} != {ok} + {failed}"),
        ]
        return {
            "attempted": sent, "failed": failed, "ops": ok,
            "sim": {"sim_p99_ms": p99, "sim_p50_ms": p50,
                    "sim_fanout_p99_ms": fan99,
                    "sim_region_s": self.cluster.engine.now - self._sim0},
            "samples": {"sim_p99_ms": n, "sim_fanout_p99_ms": fan_n},
            "counts": counts, "host": {}, "checks": checks,
        }


# -- 3. chaos_traced ----------------------------------------------------------

class ChaosTraced(Workload):
    """One chaos timeline with observability on, then the TraceChecker
    replay and the journal digest: the only workload where ``obs`` and
    the failure paths (Twine fail/repair, WAN RPCs, emergency allocation)
    do most of the work.

    The ISSUE's timeline ran a primary-only app under a single-attempt
    client, which loses ~6 % of requests by construction.  The driver
    wants workloads on which no operation fails, so this one runs three
    replicas (one per region) under the default three-attempt client:
    every fault is masked by a retry to another region and shows up in
    ``sim_p99_ms`` (one timeout plus one backoff), not as a failure.  The
    partition starts after the rolling upgrade has finished; overlapping
    them loses about one request in 10^5."""

    name = "chaos_traced"
    op = "simulated request completed"
    PARAMS = dict(servers_per_region=10, shards=300, replicas=3,
                  request_rate=30.0, duration=900.0, attempts=3,
                  rpc_timeout=0.5, upgrade_at=30.0, partition_at=240.0,
                  partition_s=90.0, crash_at=420.0, crash_s=150.0,
                  probe_at=800.0, warmup=30.0, journal_capacity=1 << 20)
    QUICK = dict(servers_per_region=4, shards=60, request_rate=10.0)

    def scenario(self) -> ScenarioSpec:
        p = self.p
        return ScenarioSpec(
            name="bench", title="benchmark chaos timeline",
            duration=p["duration"], regions=("FRC", "PRN", "ODN"),
            machines_per_region=p["servers_per_region"] + 2,
            servers_per_region=p["servers_per_region"],
            shards=p["shards"], replica_count=p["replicas"],
            replication=ReplicationStrategy.PRIMARY_SECONDARY,
            request_rate=0.0,  # the client below replaces the built-in one
            actions=(
                FaultAction(at=p["upgrade_at"], kind="rolling_upgrade",
                            params=(("region", "FRC"),)),
                FaultAction(at=p["partition_at"], kind="partition_pair",
                            duration=p["partition_s"],
                            params=(("a", "FRC"), ("b", "PRN"))),
                FaultAction(at=p["crash_at"], kind="crash_region",
                            duration=p["crash_s"],
                            params=(("region", "PRN"),)),
                FaultAction(at=p["probe_at"], kind="probe",
                            params=(("check", "ready_fraction"),
                                    ("min", 0.95))),
            ))

    def setup(self) -> Iterator[str]:
        p = self.p
        self.obs = (NO_OBS if self.variant == "obs_off"
                    else Observability(capacity=p["journal_capacity"]))
        with use(self.obs):
            self.scenario_run = ScenarioRun(self.scenario(), "sm", self.seed,
                                            self.obs)
            run = self.scenario_run
            self.client = run.app.client(run.cluster, "FRC",
                                         attempts=p["attempts"],
                                         rpc_timeout=p["rpc_timeout"])
            run.cluster.run(until=run.engine.now + 1.0)
        self.ready_at_start = run.app.ready_fraction()
        yield "deploy"

    def run(self) -> Iterator[str]:
        p = self.p
        run = self.scenario_run
        spec = run.spec
        self._mark(run.cluster)
        key_space = p["shards"] * 16
        with use(self.obs):
            self.client.run_workload(
                duration=p["duration"] - 10.0,
                rate=ConstantCurve(p["request_rate"]),
                key_fn=lambda rng: rng.randrange(key_space),
                recorder=run.recorder,
                rng=substream(self.seed, "bench", self.name))
            # ScenarioRun.execute(), spelled out so the timeline can be
            # advanced in slices: schedule the actions, run to the end,
            # journal the final readiness probe.
            span = run.tracer.begin("chaos", "scenario", None,
                                    {"scenario": spec.name, "arm": run.arm,
                                     "seed": run.seed})
            for act in spec.actions:
                run.engine.call_at(run.t0 + act.at,
                                   lambda a=act: ACTIONS[a.kind](run, a))
            yield from self._run_sliced(run.cluster, run.t0 + spec.duration)
            fraction = run.app.ready_fraction()
            run.emit_probe(fraction >= spec.expectations.final_ready_min,
                           "final_ready_fraction",
                           f"ready={fraction:.3f} "
                           f"min={spec.expectations.final_ready_min}")
            run.tracer.end(span, None, {"outcome": "done"},
                           track="chaos", name="scenario")
        self.violations = []
        self.digest = ""
        if self.obs.enabled:
            journal = self.obs.merged_journal()
            self.violations = TraceChecker(journal).check()
            yield "check"
            self.digest = journal.digest()
            yield "digest"

    def outcome(self) -> Dict[str, Any]:
        run = self.scenario_run
        rec = run.recorder
        after = self._sim0 + self.p["warmup"]
        p99, n = _ms_tail(rec.latency, after, 99.0)
        p50, _ = _ms_tail(rec.latency, after, 50.0)
        counts = self._cluster_counts()
        counts.update(_router_counts([self.client.router]))
        counts.update(_migration_counts(run.app.orchestrator))
        counts["app.client.sent"] = rec.sent
        journal = self.obs.merged_journal()
        counts["obs.records"] = journal.appended if self.obs.enabled else 0
        counts["obs.dropped"] = journal.dropped if self.obs.enabled else 0
        checks: List[Check] = [
            ("ready_before_region", self.ready_at_start == 1.0,
             f"ready={self.ready_at_start:.3f}"),
            ("sent_equals_completed_plus_failed",
             rec.sent == rec.succeeded + rec.failed,
             f"{rec.sent} != {rec.succeeded} + {rec.failed}"),
            ("trace_checker_violations", not self.violations,
             "; ".join(str(v) for v in self.violations[:3])),
            ("journal_not_truncated", counts["obs.dropped"] == 0,
             f"dropped={counts['obs.dropped']}"),
            ("recovered_at_end", run.app.ready_fraction() >= 0.95,
             f"ready={run.app.ready_fraction():.3f}"),
        ]
        return {
            "attempted": rec.sent, "failed": rec.failed,
            "ops": rec.succeeded,
            "sim": {"sim_p99_ms": p99, "sim_p50_ms": p50,
                    "sim_region_s": run.engine.now - self._sim0},
            "samples": {"sim_p99_ms": n},
            "counts": counts, "host": {}, "checks": checks,
            "digest": self.digest,
        }


# -- 4/5. the shard map, written and read -------------------------------------

class _DeltaReplica:
    """A delta-aware subscriber that keeps its own map by applying each
    delta — the subscriber-side inverse whose result must equal a full
    snapshot."""

    def __init__(self) -> None:
        self.map = None

    def __call__(self, shard_map, delta) -> None:
        if delta is None or self.map is None:
            self.map = shard_map
        else:
            self.map = self.map.apply_delta(delta)


def _ignore_delivery(shard_map, delta) -> None:
    """A subscriber that only costs the delivery itself."""


class _MapWorld:
    """One app's AssignmentTable published through ServiceDiscovery to a
    fixed set of delta subscribers, some of them routers."""

    def __init__(self, name: str, shards: int, shards_per_server: int,
                 subscribers: int, routers: int, seed: int) -> None:
        started = time.perf_counter()
        self.shards = shards
        self.spec = AppSpec(
            name=name, shards=uniform_shards(shards, key_space=shards * 16),
            replication=ReplicationStrategy.PRIMARY_ONLY)
        self.table = AssignmentTable(self.spec)
        servers = max(1, shards // shards_per_server)
        self.replicas = [
            self.table.add(shard.shard_id, f"srv/{index % servers}",
                           Role.PRIMARY, state=ReplicaState.READY)
            for index, shard in enumerate(self.spec.shards)]
        self.build_s = time.perf_counter() - started
        self.engine = Engine()
        self.network = Network(self.engine, rng=random.Random(seed))
        self.discovery = ServiceDiscovery(
            self.engine, base_delay=0.0, jitter=0.0, rng=random.Random(seed))
        self.routers: List[ServiceRouter] = []
        self.subscriptions = []
        for index in range(subscribers):
            if index < routers:
                address = f"client/{name}/{index}"
                self.network.register(address, "FRC")
                router = ServiceRouter(self.engine, self.network, address)
                self.routers.append(router)
                sink: Callable = router.on_map_update
            elif index == routers:
                self.replica = _DeltaReplica()
                sink = self.replica
            else:
                sink = _ignore_delivery
            self.subscriptions.append(
                self.discovery.subscribe(name, sink, deltas=True))
        self.flip = 0
        self.published = 0
        self.last_delta = None

    def publish(self) -> None:
        snapshot, delta = self.table.snapshot_delta()
        self.discovery.publish(snapshot, delta=delta)
        self.engine.run()
        self.published += 1
        self.last_delta = delta

    def relocate(self, sample) -> None:
        self.flip += 1
        suffix = "a" if self.flip % 2 else "b"
        relocate = self.table.relocate
        for offset, replica in enumerate(sample):
            relocate(replica.replica_id, f"srv/m{suffix}{offset}")

    def warm(self, rng: random.Random, keys: int) -> None:
        sample = [rng.randrange(self.shards * 16) for _ in range(keys)]
        for router in self.routers:
            route_for = router.route_for
            for key in sample:
                route_for(key)

    def delivered_everywhere(self) -> int:
        return min(s.deliveries for s in self.subscriptions)

    def owner_mismatches(self, shard_map) -> int:
        """Entries of ``shard_map`` that disagree with the table."""
        wrong = 0
        primary_of = self.table.primary_of
        for index, shard in enumerate(self.spec.shards):
            replica = primary_of(shard.shard_id)
            truth = replica.address if replica is not None else None
            if shard_map.primary_at(index) != truth:
                wrong += 1
        return wrong


class MapPublish(Workload):
    """The write side of a 10^5-shard map, no clients: one full publish,
    then relocate x dirty -> snapshot_delta -> publish -> deliver at
    dirty 1, 64 and 1024, plus the dirty=1 schedule on a 10^4 map (equal
    rates mean publish cost is O(dirty), not O(shards))."""

    name = "map_publish"
    op = "publish delivered to all subscribers"
    PARAMS = dict(shards=100_000, small_shards=10_000, shards_per_server=100,
                  subscribers=8, routers=4, warm_keys=10_000,
                  rounds_d1=3200, rounds_d64=400, rounds_d1024=16,
                  rounds_small_d1=3200, slices_per_sweep=16)
    QUICK = dict(shards=10_000, small_shards=1_000, warm_keys=1000,
                 rounds_d1=400, rounds_d64=64, rounds_d1024=4,
                 rounds_small_d1=400, slices_per_sweep=4)

    def setup(self) -> Iterator[str]:
        p = self.p
        rng = random.Random(self.seed)
        self.big = _MapWorld("scale", p["shards"], p["shards_per_server"],
                             p["subscribers"], p["routers"], self.seed)
        yield "build"
        self.small = _MapWorld("small", p["small_shards"],
                               p["shards_per_server"], p["subscribers"],
                               p["routers"], self.seed)
        self.small.publish()
        self.small.warm(rng, p["warm_keys"])
        self.samples = {dirty: rng.sample(self.big.replicas, dirty)
                        for dirty in (1, 64, 1024)}
        self.small_sample = rng.sample(self.small.replicas, 1)
        self.rng = rng
        yield "build_small"

    def _sweep(self, label: str, world: _MapWorld, sample, rounds: int,
               latencies: Optional[List[float]] = None) -> Iterator[str]:
        """``rounds`` relocate-and-publish rounds in slices of ~25 ms."""
        clock = time.perf_counter
        per_slice = max(1, rounds // self.p["slices_per_sweep"])
        for base in range(0, rounds, per_slice):
            for _ in range(min(per_slice, rounds - base)):
                t0 = clock()
                world.relocate(sample)
                world.publish()
                if latencies is not None:
                    latencies.append(clock() - t0)
            yield label

    def run(self) -> Iterator[str]:
        p = self.p
        big, small = self.big, self.small
        big.publish()                       # the full 10^5-entry publish
        yield "full_publish"
        # Route caches are warmed after the first map arrives and before
        # the delta sweeps, so every delta publish pays real evictions.
        big.warm(self.rng, p["warm_keys"])
        yield "warm"
        self.d1_latencies: List[float] = []
        yield from self._sweep("d1", big, self.samples[1], p["rounds_d1"],
                               self.d1_latencies)
        self.d1_delta = big.last_delta
        yield from self._sweep("d64", big, self.samples[64], p["rounds_d64"])
        yield from self._sweep("d1024", big, self.samples[1024],
                               p["rounds_d1024"])
        yield from self._sweep("small_d1", small, self.small_sample,
                               p["rounds_small_d1"])

    def outcome(self) -> Dict[str, Any]:
        p = self.p
        big, small = self.big, self.small
        host: Dict[str, float] = {}
        attempted = big.published + small.published - 1  # small's set-up one
        delivered = (big.delivered_everywhere()
                     + small.delivered_everywhere() - 1)
        host["core.shard_map.build_s"] = big.build_s
        latencies = sorted(self.d1_latencies)
        host["core.shard_map.publish_d1_us_p50"] = (
            percentile(latencies, 50.0) * 1e6)
        host["core.shard_map.publish_d1_us_p99"] = (
            percentile(latencies, 99.0) * 1e6)
        latest = big.discovery.latest(big.spec.name)
        counts = {
            "discovery.service_discovery.publishes":
                big.discovery.publishes + small.discovery.publishes - 1,
            "discovery.service_discovery.deliveries":
                sum(s.deliveries for s in big.subscriptions)
                + sum(s.deliveries for s in small.subscriptions)
                - len(small.subscriptions),
            "sim.engine.events": (big.engine.processed_events
                                  + small.engine.processed_events),
            "core.shard_map.delta_bytes_d1": delta_wire_bytes(self.d1_delta),
            "core.shard_map.full_map_bytes": map_wire_bytes(latest),
        }
        counts.update(_router_counts(big.routers + small.routers))
        wrong = big.owner_mismatches(big.replica.map)
        checks: List[Check] = [
            ("delta_built_map_equals_published_snapshot",
             big.replica.map == latest,
             f"v{big.replica.map.version} vs v{latest.version}"),
            ("delta_built_map_matches_assignment_table", wrong == 0,
             f"{wrong} of {p['shards']} entries differ"),
            ("every_publish_carried_a_delta",
             big.discovery.delta_publishes == big.published,
             f"{big.discovery.delta_publishes} of {big.published}"),
        ]
        return {
            "attempted": attempted, "failed": attempted - delivered,
            "ops": delivered, "sim": {}, "samples":
                {"core.shard_map.publish_d1_us_p99": len(latencies)},
            "counts": counts, "host": host, "checks": checks,
        }


class MapLookup(Workload):
    """The read side of the same map: ``route_for`` over a cold then warm
    cache with uniform and Zipf keys, ``index_for_key``/``entry``, and
    ``Frontend.route`` through 129 partitions on 16 mini-SMs, with a
    dirty=64 delta applied every 10^5 lookups so evict-then-refill is on
    the path.  Every answer is compared with the AssignmentTable."""

    name = "map_lookup"
    op = "lookup returned the correct owner"
    PARAMS = dict(shards=100_000, shards_per_server=100, uniform_keys=150_000,
                  zipf_lookups=200_000, zipf_skew=1.1, index_lookups=100_000,
                  frontend_lookups=200_000, partition_target=128,
                  mini_sms=16, delta_every=50_000, delta_dirty=64,
                  slice_keys=10_000)
    QUICK = dict(shards=10_000, uniform_keys=20_000, zipf_lookups=30_000,
                 index_lookups=10_000, frontend_lookups=30_000,
                 delta_every=10_000, slice_keys=5_000)

    def setup(self) -> Iterator[str]:
        p = self.p
        shards = p["shards"]
        rng = random.Random(self.seed)
        self.world = _MapWorld("scale", shards, p["shards_per_server"],
                               subscribers=2, routers=1, seed=self.seed)
        world = self.world
        yield "build"
        world.publish()
        yield "first_publish"
        key_space = shards * 16
        self.uniform = [rng.randrange(key_space)
                        for _ in range(p["uniform_keys"])]
        stride = 17
        while math.gcd(stride, key_space) != 1:
            stride += 1
        sampler = ZipfKeySampler(key_space, skew=p["zipf_skew"],
                                 stride=stride)
        self.zipf = [sampler(rng) for _ in range(p["zipf_lookups"])]
        self.index_keys = [rng.randrange(key_space)
                           for _ in range(p["index_lookups"])]
        yield "keys"
        # truth[i] is the address owning shard i (key >> 4), kept in step
        # with every relocate below.
        self.truth = [r.address for r in world.replicas]
        self.delta_samples = [
            rng.sample(range(shards), p["delta_dirty"]) for _ in range(64)]
        self.deltas_applied = 0
        replicas_per_partition = max(1, shards // p["partition_target"])
        manager = ApplicationManager(
            max_replicas_per_partition=replicas_per_partition)
        started = time.perf_counter()
        partitions = manager.partition_app(
            world.spec, server_count=max(1, shards // p["shards_per_server"]))
        registry = ApplicationRegistry()
        registry.register(world.spec.name, partitions)
        self.partition_registry = PartitionRegistry(
            replicas_per_mini_sm=max(1, shards // p["mini_sms"]))
        for partition in partitions:
            self.partition_registry.assign(partition)
        self.assign_s = time.perf_counter() - started
        self.partitions = partitions
        self.partition_of = {}
        for partition in partitions:
            mini = self.partition_registry.lookup(partition.partition_id)
            for shard in partition.spec.shards:
                self.partition_of[shard.shard_id] = mini
        self.frontend = Frontend(registry, self.partition_registry)
        shard_ids = [s.shard_id for s in world.spec.shards]
        self.frontend_ids = [rng.choice(shard_ids)
                             for _ in range(p["frontend_lookups"])]
        self.attempted = 0
        self.wrong = 0
        yield "partitions"

    def _apply_delta(self) -> None:
        world = self.world
        sample = self.delta_samples[self.deltas_applied
                                    % len(self.delta_samples)]
        self.deltas_applied += 1
        suffix = "a" if self.deltas_applied % 2 else "b"
        truth = self.truth
        for offset, shard_index in enumerate(sample):
            address = f"srv/m{suffix}{offset}"
            world.table.relocate(world.replicas[shard_index].replica_id,
                                 address)
            truth[shard_index] = address
        world.publish()

    def _route_phase(self, label: str, keys: List[int]) -> Iterator[str]:
        """route_for every key, checking each answer against the table;
        one slice per ``slice_keys`` lookups, one delta per
        ``delta_every``."""
        p = self.p
        router = self.world.routers[0]
        truth = self.truth
        wrong = 0
        for base in range(0, len(keys), p["slice_keys"]):
            route_for = router.route_for
            for key in keys[base:base + p["slice_keys"]]:
                if route_for(key)[0] != truth[key >> 4]:
                    wrong += 1
            if (base + p["slice_keys"]) % p["delta_every"] == 0:
                self._apply_delta()
            yield label
        self.attempted += len(keys)
        self.wrong += wrong

    def run(self) -> Iterator[str]:
        p = self.p
        yield from self._route_phase("cold", self.uniform)
        yield from self._route_phase("warm", self.uniform)
        yield from self._route_phase("zipf", self.zipf)

        shard_map = self.world.discovery.latest(self.world.spec.name)
        index_for_key, entry_at = shard_map.index_for_key, shard_map.entry_at
        truth = self.truth
        wrong = 0
        for base in range(0, len(self.index_keys), p["slice_keys"]):
            for key in self.index_keys[base:base + p["slice_keys"]]:
                index = index_for_key(key)
                if (index != key >> 4
                        or entry_at(index).primary != truth[index]):
                    wrong += 1
            yield "index"
        self.attempted += len(self.index_keys)

        route = self.frontend.route
        app = self.world.spec.name
        partition_of = self.partition_of
        for base in range(0, len(self.frontend_ids), p["slice_keys"]):
            for shard_id in self.frontend_ids[base:base + p["slice_keys"]]:
                if route(app, shard_id) is not partition_of[shard_id]:
                    wrong += 1
            yield "frontend"
        self.attempted += len(self.frontend_ids)
        self.wrong += wrong

    def outcome(self) -> Dict[str, Any]:
        world = self.world
        host = {"core.mini_sm.assign_s": self.assign_s,
                "core.shard_map.build_s": world.build_s}
        counts = {
            "discovery.service_discovery.publishes":
                world.discovery.publishes - 1,
            "sim.engine.events": world.engine.processed_events,
            "core.mini_sm.partitions": len(self.partitions),
            "core.mini_sm.mini_sms": len(self.partition_registry.mini_sms),
        }
        counts.update(_router_counts(world.routers))
        latest = world.discovery.latest(world.spec.name)
        mismatches = world.owner_mismatches(latest)
        checks: List[Check] = [
            ("every_lookup_matched_the_assignment_table", self.wrong == 0,
             f"{self.wrong} of {self.attempted} wrong"),
            ("published_map_matches_assignment_table", mismatches == 0,
             f"{mismatches} entries differ"),
            ("deltas_were_applied", self.deltas_applied > 0,
             f"{self.deltas_applied} deltas"),
        ]
        return {
            "attempted": self.attempted, "failed": self.wrong,
            "ops": self.attempted - self.wrong, "sim": {}, "samples": {},
            "counts": counts, "host": host, "checks": checks,
        }


# -- 6. solver_place ----------------------------------------------------------

class SolverPlace(Workload):
    """Fig 21: ZippyDB snapshots at the paper's 1:3:5 scale points divided
    by ``factor``, solved from a random assignment with the default
    optimised search.  Solver only — no engine, no network.

    A solve cannot be cut into slices from outside, and a slice much
    longer than a quarter of a second cannot be normalised (see
    ``calibrate.py``), so instead of three large solves this runs
    ``rounds`` independent snapshots of each scale point."""

    name = "solver_place"
    op = "solver evaluation"
    PARAMS = dict(factor=10, rounds=3)
    QUICK = dict(factor=50, rounds=1)

    def setup(self) -> Iterator[str]:
        self.instances = []
        for round_index in range(self.p["rounds"]):
            for scale in scaled(PAPER_SCALES, factor=self.p["factor"]):
                problem = zippydb_snapshot(
                    scale, seed=self.seed * 1000 + round_index)
                rebalancer = attach_zippydb_goals(problem)
                self.instances.append((scale, rebalancer,
                                       rebalancer.violations()))
                yield "snapshot"
        self.results = []

    def run(self) -> Iterator[str]:
        config = SearchConfig(time_budget=SOLVER_BUDGET_S,
                              rng_seed=self.seed)
        for _, rebalancer, _ in self.instances:
            self.results.append(rebalancer.solve(config))
            yield "solve"

    def outcome(self) -> Dict[str, Any]:
        unsolved = sum(1 for _, rebalancer, _ in self.instances
                       if rebalancer.violations())
        evaluations = sum(result.evaluations for result in self.results)
        checks: List[Check] = [
            ("all_violations_fixed", unsolved == 0,
             f"{unsolved} of {len(self.instances)} instances unsolved"),
            ("instances_started_violated",
             all(initial > 0 for _, _, initial in self.instances),
             "an instance had nothing to fix"),
        ]
        return {
            "attempted": len(self.instances), "failed": unsolved,
            "ops": evaluations, "sim": {}, "samples": {},
            "counts": {"solver.initial_violations":
                       sum(i for _, _, i in self.instances)},
            "host": {}, "checks": checks,
        }


# -- 7. fluid_diurnal ---------------------------------------------------------

class FluidDiurnal(Workload):
    """10 M users as analytic flows over one compressed diurnal day, with
    a staged rolling upgrade per region, on the discrete control plane.
    The per-request path (router, app server, network RPCs for requests)
    is bypassed."""

    name = "fluid_diurnal"
    op = "simulated arrival served"
    PARAMS = dict(users=10_000_000, shards=1000, servers_per_region=25,
                  day_length=3600.0, days=1, epoch=30.0, rate_per_user=0.1,
                  service_time=0.0005, restart_duration=60.0)
    QUICK = dict(shards=150, servers_per_region=6, day_length=1200.0,
                 restart_duration=20.0)

    REGIONS = ("FRC", "PRN", "ODN")

    def setup(self) -> Iterator[str]:
        p = self.p
        regions = self.REGIONS
        per_region = p["servers_per_region"]
        cluster = SimCluster.build(regions=regions,
                                   machines_per_region=per_region + 4,
                                   seed=self.seed)
        self.concurrency = max(1, per_region // 10)
        spec = AppSpec(
            name="fluid",
            shards=uniform_shards(p["shards"], key_space=p["shards"] * 16),
            replication=ReplicationStrategy.PRIMARY_ONLY,
            max_concurrent_container_ops=self.concurrency)
        self.app = deploy_app(
            cluster, spec, {region: per_region for region in regions},
            orchestrator_config=OrchestratorConfig(
                failover_grace=240.0, rebalance_interval=300.0,
                drain_concurrency=4, drain_pacing=0.2,
                search_config=SearchConfig(time_budget=SOLVER_BUDGET_S,
                                           rng_seed=self.seed)),
            settle=90.0)
        self.cluster = cluster
        self.spec = spec
        users_per_region = p["users"] // len(regions)
        peak = 1.6 * p["rate_per_user"] * users_per_region
        # Capacity sized so the regional peak lands near 70 % utilisation.
        capacity = max(1, int(peak * p["service_time"]
                              / (0.7 * per_region)) + 1)
        self.clients = []
        self.recorders = []
        self.curves = []
        for index, region in enumerate(regions):
            self.curves.append(DiurnalCurve(
                base=0.4 * p["rate_per_user"] * users_per_region, peak=peak,
                period=p["day_length"],
                phase=p["day_length"] * index / len(regions)))
            self.recorders.append(
                WorkloadRecorder.with_bucket(p["day_length"] / 48.0))
            self.clients.append(self.app.fluid_client(
                cluster, region, capacity=capacity,
                service_time=p["service_time"], load_feed_interval=60.0))
        cluster.run(until=cluster.engine.now + 1.0)
        self.ready_at_start = self.app.ready_fraction()
        self.upgrades: List[Any] = []
        yield "deploy"

    def _upgrade(self, region: str) -> None:
        self.upgrades.append(self.cluster.twines[region].start_rolling_upgrade(
            self.spec.name, self.concurrency,
            restart_duration=self.p["restart_duration"]))

    def run(self) -> Iterator[str]:
        p = self.p
        cluster = self.cluster
        engine = cluster.engine
        self._mark(cluster)
        horizon = p["days"] * p["day_length"]
        driver = EpochDriver(engine, epoch=p["epoch"])
        for client, curve, recorder in zip(self.clients, self.curves,
                                           self.recorders):
            client.run_workload(duration=horizon, rate=curve,
                                recorder=recorder, driver=driver)
        for day in range(p["days"]):
            for index, region in enumerate(self.REGIONS):
                at = (self._sim0 + day * p["day_length"]
                      + p["day_length"] * (0.2 + 0.15 * index))
                engine.call_at(at, self._upgrade, region)
        yield from self._run_sliced(cluster, self._sim0 + horizon + 120.0)

    def outcome(self) -> Dict[str, Any]:
        clients = self.clients
        arrivals = sum(c.arrivals_total for c in clients)
        ok = sum(c.ok_total for c in clients)
        failed = sum(c.failed_total for c in clients)
        p99 = max((c.latency_p99.max() for c in clients
                   if len(c.latency_p99)), default=0.0)
        counts = self._cluster_counts()
        counts.update(_migration_counts(self.app.orchestrator))
        counts["app.fluid.epochs"] = sum(c.epochs for c in clients)
        counts["app.fluid.flows"] = sum(c.flow_count() for c in clients)
        counts["app.fluid.delta_reprices"] = sum(c.delta_reprices
                                                 for c in clients)
        counts["app.fluid.full_reprices"] = sum(c.full_reprices
                                                for c in clients)
        done = [u for u in self.upgrades if u.finished_at is not None]
        checks: List[Check] = [
            ("ready_before_region", self.ready_at_start == 1.0,
             f"ready={self.ready_at_start:.3f}"),
            ("arrivals_equal_served_plus_failed",
             abs(arrivals - ok - failed) <= 1e-6 * max(1.0, arrivals),
             f"{arrivals} != {ok} + {failed}"),
            ("every_upgrade_finished",
             len(done) == len(self.upgrades) == (
                 self.p["days"] * len(self.REGIONS)),
             f"{len(done)} of {len(self.upgrades)} upgrades finished"),
        ]
        return {
            "attempted": int(round(arrivals)), "failed": int(round(failed)),
            "ops": int(round(ok)),
            "sim": {"sim_p99_ms": p99 * 1e3,
                    "sim_region_s": self.cluster.engine.now - self._sim0,
                    "sim_upgrade_s": sum(u.finished_at - u.started_at
                                         for u in done),
                    "sim_arrivals": arrivals, "sim_served": ok},
            "samples": {"sim_p99_ms": sum(len(c.latency_p99)
                                          for c in clients)},
            "counts": counts, "host": {}, "checks": checks,
        }


WORKLOADS: Dict[str, type] = {cls.name: cls for cls in (
    UpgradeEvent, SkewScatter, ChaosTraced, MapPublish, MapLookup,
    SolverPlace, FluidDiurnal)}
