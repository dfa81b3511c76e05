"""The metric catalogue: what is reported, in what unit, and from where.

``END_TO_END`` is what a user of the reproduction waits for or reads;
``CATALOGUE`` is the per-layer split.  A layer is a module of ``src/repro``.  Counts come from the layers' own
public counters and repeat exactly per seed; ``*_s`` values are host
self times from the traced pass, normalised to reference speed like every
other host time (see ``calibrate.py``).  A metric a workload does not
exercise reads 0: the driver wants every per-layer metric from every
workload, and 0 is what an unused layer's counter says.

``CATALOGUE`` rows are ``(name, unit, better, moves)``; ``moves`` names
the end-to-end metric and workload the value should move — the
prediction a later change is held to (README, "How the metrics
interact").
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

#: (name, unit, clock, better, bound, in BENCHMARK.json).  ``bound`` is
#: how far the median may worsen before ``compare.py`` calls it a
#: regression: a share of the base median, except ``failed_ratio``
#: (absolute) and the ``sim`` clock rows (compared exactly; the bound says
#: how much of a *design* change's cost is tolerated).
#:
#: The driver's contract wants every end-to-end metric from every
#: workload and never 0, so BENCHMARK.json carries ``failed_ratio`` as
#: ``success_ratio`` = 1 - failed_ratio, and the two simulated tails,
#: which only workloads with simulated clients define, as the per-layer
#: metrics ``app.client.sim_p99_ms`` / ``app.scatter.sim_fanout_p99_ms``.
END_TO_END: Tuple[Tuple[str, str, str, str, float, bool], ...] = (
    ("setup_s", "s", "host", "lower", 0.25, True),
    ("wall_s", "s", "host", "lower", 0.25, True),
    ("ops_per_s", "1/s", "host", "higher", 0.25, True),
    ("peak_rss_mb", "MiB", "host", "lower", 0.10, True),
    ("success_ratio", "ratio", "sim", "higher", 0.002, True),
    ("failed_ratio", "ratio", "sim", "lower", 0.002, False),
    ("sim_p99_ms", "sim_ms", "sim", "lower", 0.05, False),
    ("sim_fanout_p99_ms", "sim_ms", "sim", "lower", 0.05, False),
)

EVENT = "upgrade_event, skew_scatter, chaos_traced"

CATALOGUE: Tuple[Tuple[str, str, str, str], ...] = (
    # -- sim.engine
    ("sim.engine.events", "count", "lower", f"wall_s on {EVENT}"),
    ("sim.engine.scheduled", "count", "lower", f"wall_s on {EVENT}"),
    ("sim.engine.events_per_op", "count", "lower", f"wall_s on {EVENT}"),
    ("sim.engine.events_per_s", "1/s", "higher", f"wall_s on {EVENT}"),
    ("sim.engine.self_s", "s", "lower", f"wall_s on {EVENT}"),
    # -- sim.network
    ("sim.network.rpcs", "count", "lower", f"wall_s on {EVENT}"),
    ("sim.network.rpcs_failed", "count", "lower",
     "success_ratio, sim_p99_ms on chaos_traced"),
    ("sim.network.busy_s", "s", "lower", f"wall_s on {EVENT}"),
    ("sim.network.us_per_rpc", "us", "lower", f"wall_s on {EVENT}"),
    # -- discovery.router
    ("discovery.router.requests", "count", "higher", f"ops_per_s on {EVENT}"),
    ("discovery.router.retries", "count", "lower",
     "sim_p99_ms then success_ratio on chaos_traced, upgrade_event"),
    ("discovery.router.misroutes", "count", "lower",
     "sim_p99_ms then success_ratio on upgrade_event, chaos_traced"),
    ("discovery.router.route_cache_hit_ratio", "ratio", "higher",
     "wall_s on skew_scatter; ops_per_s on map_lookup"),
    ("discovery.router.route_evictions", "count", "lower",
     "wall_s on upgrade_event; ops_per_s on map_publish"),
    ("discovery.router.map_updates", "count", "lower",
     "wall_s on upgrade_event"),
    ("discovery.router.busy_s", "s", "lower",
     "wall_s on skew_scatter (hit path), upgrade_event (evict/miss path); "
     "ops_per_s on map_lookup"),
    ("discovery.router.us_per_request", "us", "lower",
     "wall_s on skew_scatter; ops_per_s on map_lookup"),
    # -- discovery.service_discovery
    ("discovery.service_discovery.publishes", "count", "lower",
     "wall_s on upgrade_event"),
    ("discovery.service_discovery.deliveries", "count", "lower",
     "ops_per_s on map_publish"),
    ("discovery.service_discovery.busy_s", "s", "lower",
     "ops_per_s on map_publish; wall_s on upgrade_event"),
    # -- app.*
    ("app.client.sent", "count", "higher", f"ops_per_s on {EVENT}"),
    ("app.client.busy_s", "s", "lower", f"wall_s on {EVENT}"),
    ("app.client.sim_p50_ms", "sim_ms", "lower",
     "the modelled median request latency"),
    ("app.client.sim_p99_ms", "sim_ms", "lower",
     "the modelled tail: moves before success_ratio does"),
    ("app.server.requests_served", "count", "higher", f"ops_per_s on {EVENT}"),
    ("app.server.control_rpcs", "count", "lower",
     "wall_s on upgrade_event, chaos_traced"),
    ("app.server.busy_s", "s", "lower", f"wall_s on {EVENT}"),
    ("app.scatter.scatters", "count", "higher", "ops_per_s on skew_scatter"),
    ("app.scatter.legs", "count", "higher", "ops_per_s on skew_scatter"),
    ("app.scatter.busy_s", "s", "lower", "wall_s on skew_scatter"),
    ("app.scatter.sim_fanout_p99_ms", "sim_ms", "lower",
     "slowest of K legs: amplifies app.client.sim_p99_ms on skew_scatter"),
    # -- app.fluid / sim.fluid
    ("app.fluid.epochs", "count", "lower", "wall_s on fluid_diurnal"),
    ("app.fluid.flows", "count", "lower", "wall_s on fluid_diurnal"),
    ("app.fluid.delta_reprices", "count", "lower", "wall_s on fluid_diurnal"),
    ("app.fluid.full_reprices", "count", "lower", "wall_s on fluid_diurnal"),
    ("app.fluid.delta_reprice_ratio", "ratio", "higher",
     "wall_s on fluid_diurnal"),
    ("app.fluid.busy_s", "s", "lower", "wall_s, ops_per_s on fluid_diurnal"),
    ("sim.fluid.mgk_calls", "count", "lower", "wall_s on fluid_diurnal"),
    ("sim.fluid.busy_s", "s", "lower", "wall_s on fluid_diurnal"),
    # -- core.shard_map
    ("core.shard_map.build_s", "s", "lower", "setup_s on map_publish"),
    ("core.shard_map.full_publish_s", "s", "lower",
     "wall_s, peak_rss_mb on map_publish"),
    ("core.shard_map.snapshot_delta_s", "s", "lower",
     "ops_per_s on map_publish; wall_s on upgrade_event"),
    ("core.shard_map.apply_delta_s", "s", "lower",
     "ops_per_s on map_publish"),
    ("core.shard_map.publish_d1_per_s", "1/s", "higher",
     "ops_per_s on map_publish"),
    ("core.shard_map.publish_d64_per_s", "1/s", "higher",
     "ops_per_s on map_publish"),
    ("core.shard_map.publish_d1024_per_s", "1/s", "higher",
     "ops_per_s on map_publish"),
    ("core.shard_map.publish_d1_us_p50", "us", "lower",
     "ops_per_s on map_publish"),
    ("core.shard_map.publish_d1_us_p99", "us", "lower",
     "ops_per_s on map_publish"),
    ("core.shard_map.publish_d1_scale_ratio", "ratio", "lower",
     "1.0 means publish cost is O(dirty): ops_per_s on map_publish"),
    ("core.shard_map.delta_bytes_d1", "count", "lower",
     "the modelled dissemination cost"),
    ("core.shard_map.full_map_bytes", "count", "lower",
     "peak_rss_mb on map_publish"),
    ("core.shard_map.lookup_us", "us", "lower", "ops_per_s on map_lookup"),
    # -- core control plane
    ("core.orchestrator.publishes", "count", "lower",
     "wall_s on upgrade_event, chaos_traced"),
    ("core.orchestrator.busy_s", "s", "lower",
     "wall_s on upgrade_event, chaos_traced"),
    ("core.allocator.emergency_plans", "count", "lower",
     "wall_s on chaos_traced"),
    ("core.allocator.periodic_plans", "count", "lower",
     "wall_s on skew_scatter (under 1 %)"),
    ("core.allocator.busy_s", "s", "lower",
     "wall_s on upgrade_event, chaos_traced"),
    ("core.migration.moves", "count", "lower",
     "more moves can buy a better tail: sim_p99_ms wherever shards move"),
    ("core.migration.graceful", "count", "higher",
     "success_ratio on upgrade_event"),
    ("core.migration.failures", "count", "lower",
     "success_ratio on chaos_traced"),
    ("core.migration.sim_ms_per_move", "sim_ms", "lower",
     "the modelled upgrade duration"),
    ("core.migration.busy_s", "s", "lower",
     "wall_s on upgrade_event, chaos_traced"),
    ("core.mini_sm.frontend_routes_per_s", "1/s", "higher",
     "ops_per_s on map_lookup"),
    ("core.mini_sm.assign_s", "s", "lower", "setup_s on map_lookup"),
    ("core.mini_sm.busy_s", "s", "lower", "ops_per_s on map_lookup"),
    # -- coordination / cluster
    ("coordination.zookeeper.writes", "count", "lower",
     "wall_s on upgrade_event, chaos_traced"),
    ("coordination.zookeeper.busy_s", "s", "lower",
     "wall_s on upgrade_event, chaos_traced"),
    ("cluster.twine.container_ops", "count", "lower",
     "wall_s on upgrade_event, chaos_traced"),
    ("cluster.twine.upgrade_sim_s", "sim_s", "lower",
     "the modelled upgrade duration on upgrade_event, fluid_diurnal"),
    ("cluster.twine.busy_s", "s", "lower",
     "wall_s on upgrade_event, chaos_traced"),
    # -- solver
    ("solver.solves", "count", "lower", "wall_s on solver_place"),
    ("solver.evaluations", "count", "lower", "wall_s on solver_place"),
    ("solver.moves", "count", "lower", "wall_s on solver_place"),
    ("solver.useful_move_ratio", "ratio", "higher", "wall_s on solver_place"),
    ("solver.evals_per_s", "1/s", "higher", "ops_per_s on solver_place"),
    ("solver.final_violations", "count", "lower",
     "success_ratio on solver_place"),
    ("solver.timed_out", "count", "lower",
     "any non-zero value fails the workload"),
    ("solver.busy_s", "s", "lower", "wall_s, ops_per_s on solver_place"),
    # -- obs
    ("obs.records", "count", "lower", "wall_s, peak_rss_mb on chaos_traced"),
    ("obs.dropped", "count", "lower", "journal truncation on chaos_traced"),
    ("obs.tracer_busy_s", "s", "lower", "wall_s on chaos_traced"),
    ("obs.checker_s", "s", "lower", "wall_s on chaos_traced"),
    ("obs.digest_s", "s", "lower", "wall_s on chaos_traced"),
    ("obs.overhead_ratio", "ratio", "lower", "wall_s on chaos_traced"),
    # -- the harness itself
    ("bench.busy_s", "s", "lower", "the benchmark's own loops and checks"),
    ("bench.trace_overhead_ratio", "ratio", "lower", "health of the harness"),
    ("bench.unattributed_ratio", "ratio", "lower", "health of the harness"),
    ("bench.host_speed", "ratio", "higher",
     "reference speed / this host's speed during the traced unit"),
    ("bench.raw_wall_s", "s", "lower",
     "un-normalised host seconds of the untraced region"),
)

NAMES: Tuple[str, ...] = tuple(row[0] for row in CATALOGUE)
UNIT: Dict[str, str] = {row[0]: row[1] for row in CATALOGUE}

#: layers that get a ``<layer>.busy_s`` straight from the span summary.
_BUSY_LAYERS = ("sim.network", "discovery.router",
                "discovery.service_discovery", "app.client", "app.server",
                "app.scatter", "app.fluid", "sim.fluid", "core.orchestrator",
                "core.allocator", "core.migration", "core.mini_sm",
                "coordination.zookeeper",
                "cluster.twine", "solver")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(traced: Dict[str, Any], plain: Dict[str, Any],
                  traced_wall_s: float,
                  obs_off_wall_s: Optional[float] = None) -> Dict[str, float]:
    """Every catalogue metric for one traced unit.

    ``traced`` is a worker result with a span summary.  ``plain`` is the
    composite of the untraced units of the same workload and seed
    (``wall_s``, ``raw_wall_s``, ``phase_s`` per slice label, ``host``):
    throughputs and phase times are quoted from it, not from the traced
    wall.  ``traced_wall_s`` / ``obs_off_wall_s`` are the composite walls
    of the traced units with observability as the workload has it / off
    (``chaos_traced`` only).
    """
    counts: Dict[str, float] = traced["counts"]
    host: Dict[str, float] = plain["host"]
    phase: Dict[str, float] = plain["phase_s"]
    params: Dict[str, Any] = traced["params"]
    sim: Dict[str, float] = traced["sim"]
    spans = traced["spans"]
    speed = traced["speed"]
    busy: Dict[str, float] = spans["busy_s"]
    calls: Dict[str, int] = spans["calls"]
    self_by_label: Dict[str, float] = spans["self_by_label"]
    ops = traced["ops"]

    def count(name: str) -> float:
        return counts.get(name, 0)

    m: Dict[str, float] = {name: 0.0 for name in NAMES}
    for name in NAMES:          # counters and workload-timed host values
        if name in counts:
            m[name] = counts[name]
        elif name in host:
            m[name] = host[name]
    for layer in _BUSY_LAYERS:
        m[f"{layer}.busy_s"] = busy.get(layer, 0.0) * speed

    events = count("sim.engine.events")
    m["sim.engine.scheduled"] = spans["scheduled"]
    m["sim.engine.events_per_op"] = _ratio(events, ops)
    m["sim.engine.events_per_s"] = _ratio(events, plain["wall_s"])
    m["sim.engine.self_s"] = spans["engine_self_s"] * speed
    m["sim.network.us_per_rpc"] = _ratio(
        m["sim.network.busy_s"] * 1e6, count("sim.network.rpcs"))

    hits = count("discovery.router.route_cache_hits")
    misses = count("discovery.router.route_cache_misses")
    m["discovery.router.route_cache_hit_ratio"] = _ratio(hits, hits + misses)
    routed = (count("discovery.router.requests")
              or calls.get("ServiceRouter.route_for", 0))
    m["discovery.router.us_per_request"] = _ratio(
        m["discovery.router.busy_s"] * 1e6, routed)
    if "discovery.service_discovery.deliveries" not in counts:
        m["discovery.service_discovery.deliveries"] = calls.get(
            "Subscription.deliver", 0)

    m["app.client.sim_p50_ms"] = sim.get("sim_p50_ms", 0.0)
    m["app.client.sim_p99_ms"] = sim.get("sim_p99_ms", 0.0)
    m["app.scatter.sim_fanout_p99_ms"] = sim.get("sim_fanout_p99_ms", 0.0)
    if "app.server.requests_served" not in counts:
        m["app.server.requests_served"] = calls.get("rpc:app.request", 0)
    m["app.server.control_rpcs"] = sum(
        n for label, n in calls.items()
        if label.startswith("rpc:sm.") and label != "rpc:sm.ping")

    delta = count("app.fluid.delta_reprices")
    full = count("app.fluid.full_reprices")
    m["app.fluid.delta_reprice_ratio"] = _ratio(delta, delta + full)
    m["sim.fluid.mgk_calls"] = 2 * calls.get("FluidServer.offer", 0)

    # Phase times come from the untraced slices carrying that label.
    m["core.shard_map.full_publish_s"] = phase.get("full_publish", 0.0)
    for dirty in (1, 64, 1024):
        m[f"core.shard_map.publish_d{dirty}_per_s"] = _ratio(
            params.get(f"rounds_d{dirty}", 0), phase.get(f"d{dirty}", 0.0))
    m["core.shard_map.publish_d1_scale_ratio"] = _ratio(
        _ratio(params.get("rounds_small_d1", 0), phase.get("small_d1", 0.0)),
        m["core.shard_map.publish_d1_per_s"])
    m["core.shard_map.lookup_us"] = _ratio(
        (phase.get("cold", 0.0) + phase.get("warm", 0.0)
         + phase.get("zipf", 0.0)) * 1e6,
        2 * params.get("uniform_keys", 0) + params.get("zipf_lookups", 0))
    m["core.mini_sm.frontend_routes_per_s"] = _ratio(
        params.get("frontend_lookups", 0), phase.get("frontend", 0.0))
    m["core.shard_map.snapshot_delta_s"] = self_by_label.get(
        "AssignmentTable.snapshot_delta", 0.0) * speed
    m["core.shard_map.apply_delta_s"] = self_by_label.get(
        "ShardMap.apply_delta", 0.0) * speed

    m["core.allocator.emergency_plans"] = calls.get(
        "Allocator.emergency_plan", 0)
    m["core.allocator.periodic_plans"] = calls.get(
        "Allocator.periodic_plan", 0)
    m["core.migration.sim_ms_per_move"] = _ratio(
        sim.get("sim_region_s", 0.0) * 1e3, count("core.migration.moves"))
    m["coordination.zookeeper.writes"] = sum(
        calls.get(f"ZooKeeper.{op}", 0) for op in ("create", "set", "delete"))
    m["cluster.twine.container_ops"] = calls.get("Twine.submit_op", 0)
    m["cluster.twine.upgrade_sim_s"] = sim.get("sim_upgrade_s", 0.0)

    m["solver.useful_move_ratio"] = _ratio(count("solver.moves"),
                                           count("solver.evaluations"))
    # Nothing inside a solve is wrapped, so its span is its untraced cost.
    m["solver.evals_per_s"] = _ratio(count("solver.evaluations"),
                                     m["solver.busy_s"])

    m["obs.tracer_busy_s"] = sum(
        self_by_label.get(f"Tracer.{op}", 0.0)
        for op in ("begin", "end", "instant", "counter")) * speed
    m["obs.checker_s"] = phase.get("check", 0.0)
    m["obs.digest_s"] = phase.get("digest", 0.0)
    if obs_off_wall_s:
        m["obs.overhead_ratio"] = traced_wall_s / obs_off_wall_s - 1.0

    # Region time under no span at all is the benchmark's own loop.
    uncovered = max(0.0, traced["wall_raw_s"] - spans["top_level_s"])
    m["bench.busy_s"] = (busy.get("bench", 0.0) + uncovered) * speed
    m["bench.trace_overhead_ratio"] = _ratio(traced_wall_s,
                                             plain["wall_s"]) - 1.0
    m["bench.unattributed_ratio"] = _ratio(spans["engine_self_s"],
                                           spans["engine_run_s"])
    m["bench.host_speed"] = speed
    m["bench.raw_wall_s"] = plain["raw_wall_s"]
    return m


def traced_self_total_s(traced: Dict[str, Any]) -> float:
    """Every span's self time of one traced unit, engine included, at
    reference speed: what the layers' host times add up to."""
    spans = traced["spans"]
    return (sum(spans["busy_s"].values())
            + spans["engine_self_s"]) * traced["speed"]
