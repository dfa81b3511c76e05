"""The observability subsystem: tracer, metrics, exporters, TraceChecker.

Covers four layers:

* unit behaviour of the journal ring, record canonicalization, and the
  metrics registry;
* exporter structure (Chrome/Perfetto JSON, JSONL roundtrip);
* the TraceChecker's invariants, both on fabricated bad journals
  (negative tests) and on real traced cluster runs;
* the determinism contract — tracing enabled changes *nothing* about
  simulation behaviour, and two traced runs produce bit-identical
  journals.
"""

import json

import pytest

from repro.core.orchestrator import OrchestratorConfig
from repro.core.spec import AppSpec, ReplicationStrategy, uniform_shards
from repro.harness import SimCluster, deploy_app
from repro.metrics import MetricsRegistry
from repro.obs import NO_OBS, NO_TRACER, Observability, get_default, use
from repro.obs.checker import TraceChecker, Violation
from repro.obs.tracer import Journal, Tracer
from repro.obs.trace_export import (
    chrome_trace_events,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)

from .test_golden_trace import FIXTURE, _run_scenario


# -- helpers -----------------------------------------------------------------


def traced_app(shards=12, servers=4, seed=3, settle=60.0, **spec_kwargs):
    obs = Observability()
    with use(obs):
        cluster = SimCluster.build(regions=("FRC",),
                                   machines_per_region=servers + 2,
                                   seed=seed)
        spec = AppSpec(name="obsapp",
                       shards=uniform_shards(shards, shards * 10),
                       replication=ReplicationStrategy.PRIMARY_ONLY,
                       **spec_kwargs)
        app = deploy_app(cluster, spec, {"FRC": servers},
                         orchestrator_config=OrchestratorConfig(
                             failover_grace=15.0),
                         settle=settle)
    return obs, cluster, app


# -- tracer / journal units --------------------------------------------------


class TestJournal:
    def test_ring_eviction_and_dropped_count(self):
        tracer = Tracer(Journal(capacity=8))
        for index in range(20):
            tracer.instant("t", f"e{index}", float(index))
        journal = tracer.journal
        assert journal.appended == 20
        assert len(list(journal)) == 8
        assert journal.dropped == 12
        # Oldest records were evicted; the survivors are the last 8.
        assert [r.name for r in journal] == [
            f"e{i}" for i in range(12, 20)]

    def test_digest_is_deterministic(self):
        def fill(tracer):
            span = tracer.begin("a", "op", 1.0, {"k": 1})
            tracer.instant("b", "i", 1.5)
            tracer.end(span, 2.0, {"ok": 1}, track="a", name="op")

        t1, t2 = Tracer(Journal()), Tracer(Journal())
        fill(t1)
        fill(t2)
        assert t1.journal.digest() == t2.journal.digest()

    def test_wall_clock_args_excluded_from_digest(self):
        t1, t2 = Tracer(Journal()), Tracer(Journal())
        t1.instant("solver", "stage", 1.0, {"calls": 3, "wall_ms": 1.23})
        t2.instant("solver", "stage", 1.0, {"calls": 3, "wall_ms": 9.87})
        assert t1.journal.digest() == t2.journal.digest()
        t2.instant("solver", "stage", 1.0, {"calls": 4})
        assert t1.journal.digest() != t2.journal.digest()

    def test_behaviour_digest_ignores_engine_track_and_positions(self):
        """Same system behaviour, different simulator substrate: one run
        samples more engine dispatches, which also shifts every later
        record's seq.  digest() moves, behaviour_digest() does not."""
        def behave(tracer, engine_samples):
            span = tracer.begin("net", "rpc", 1.0, {"dst": "a"})
            for index in range(engine_samples):
                tracer.instant("engine", "tick", 1.0 + index)
                tracer.counter("engine", "pending_events", index, 1.0)
            tracer.instant("shards", "transition", 1.5, {"op": "add"})
            tracer.end(span, 2.0, {"ok": 1}, track="net", name="rpc")

        t1, t2 = Tracer(Journal()), Tracer(Journal())
        behave(t1, engine_samples=1)
        behave(t2, engine_samples=5)
        assert t1.journal.digest() != t2.journal.digest()
        assert (t1.journal.behaviour_digest()
                == t2.journal.behaviour_digest())
        t2.instant("shards", "transition", 2.5, {"op": "drop"})
        assert (t1.journal.behaviour_digest()
                != t2.journal.behaviour_digest())

    def test_behaviour_digest_skips_wall_clock_args(self):
        t1, t2 = Tracer(Journal()), Tracer(Journal())
        t1.instant("solver", "stage", 1.0, {"calls": 3, "wall_ms": 1.23})
        t2.instant("solver", "stage", 1.0, {"calls": 3, "wall_ms": 9.87})
        assert (t1.journal.behaviour_digest()
                == t2.journal.behaviour_digest())

    def test_null_tracer_records_nothing(self):
        span = NO_TRACER.begin("a", "op", 1.0)
        NO_TRACER.end(span)
        NO_TRACER.instant("a", "i")
        NO_TRACER.counter("a", "c", 1)
        assert NO_TRACER.journal.appended == 0
        assert not NO_TRACER.enabled

    def test_tracks_sorted_unique(self):
        tracer = Tracer(Journal())
        for track in ("net", "engine", "net", "shards"):
            tracer.instant(track, "x", 0.0)
        assert tracer.journal.tracks() == ["engine", "net", "shards"]


class TestMetricsRegistry:
    def test_gauge_and_histogram(self):
        registry = MetricsRegistry()
        value = 7
        registry.gauge("g", lambda: value)
        hist = registry.histogram("h")
        for sample in (0.3, 1.5, 1_000_000.0):
            hist.observe(sample)
        snap = registry.snapshot()
        assert snap["g"] == 7
        assert snap["h"]["total"] == 3
        assert snap["h"]["overflow"] == 1  # past the last bucket bound
        assert hist.mean == pytest.approx((0.3 + 1.5 + 1_000_000.0) / 3)

    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("x")
        with pytest.raises(ValueError):
            registry.gauge("x", lambda: 0)

    def test_gauge_reregistration_wins(self):
        # A failover starts a fresh orchestrator that re-registers its
        # gauges under the same names; the latest binding must win.
        registry = MetricsRegistry()
        registry.gauge("g", lambda: 1)
        registry.gauge("g", lambda: 2)
        assert registry.snapshot()["g"] == 2


# -- exporters ---------------------------------------------------------------


class TestExport:
    def test_chrome_event_structure(self):
        tracer = Tracer(Journal())
        span = tracer.begin("net", "echo", 1.0, {"src": "a", "dst": "b"})
        tracer.end(span, 1.5, {"ok": 1}, track="net", name="echo")
        tracer.instant("solver", "stage", 2.0, {"calls": 1, "wall_ms": 3.0})
        tracer.counter("engine", "pending_events", 9, 2.5)
        events = chrome_trace_events(tracer.journal)
        by_ph = {}
        for event in events:
            by_ph.setdefault(event["ph"], []).append(event)
        assert {"M", "b", "e", "X", "C"} <= set(by_ph)
        begin = by_ph["b"][0]
        assert begin["name"] == "echo" and begin["ts"] == 1.0 * 1e6
        assert by_ph["X"][0]["dur"] == 3.0 * 1e3  # wall_ms in microseconds
        assert by_ph["C"][0]["args"] == {"pending_events": 9}

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        obs, _cluster, _app = traced_app()
        path = tmp_path / "trace.json"
        write_chrome_trace(obs.journal, str(path))
        data = json.loads(path.read_text())
        assert data["traceEvents"]
        assert data["otherData"]["records"] == obs.journal.appended
        assert data["otherData"]["digest"] == obs.journal.digest()

    def test_jsonl_roundtrip_preserves_digest(self, tmp_path):
        obs, _cluster, _app = traced_app()
        path = tmp_path / "journal.jsonl"
        write_jsonl(obs.journal, str(path))
        loaded = read_jsonl(str(path))
        assert loaded.appended == obs.journal.appended
        assert loaded.digest() == obs.journal.digest()


# -- TraceChecker negative tests (fabricated bad journals) -------------------


class TestCheckerNegative:
    def test_double_completed_rpc_caught(self):
        tracer = Tracer(Journal())
        span = tracer.begin("net", "echo", 1.0, {"src": "a", "dst": "b"})
        tracer.end(span, 1.4, {"ok": 1}, track="net", name="echo")
        tracer.end(span, 2.0, {"ok": 0, "error": "Timeout"},
                   track="net", name="echo")
        violations = TraceChecker(tracer.journal).check()
        assert any(v.invariant == "single-completion" for v in violations)

    def test_torn_migration_caught(self):
        # An "ok" graceful migration that never journaled its handoff.
        tracer = Tracer(Journal())
        span = tracer.begin("migration", "graceful", 1.0,
                            {"shard": "s0", "from": "a", "to": "b"})
        for phase in ("prepare", "forward", "publish", "drop_old"):
            tracer.instant("migration", "phase", None,
                           {"span": span, "phase": phase})
        tracer.end(span, 2.0, {"outcome": "ok"},
                   track="migration", name="graceful")
        violations = TraceChecker(tracer.journal).check()
        assert any(v.invariant == "migration-protocol" for v in violations)

    def test_aborted_migration_is_not_torn(self):
        tracer = Tracer(Journal())
        span = tracer.begin("migration", "graceful", 1.0,
                            {"shard": "s0", "from": "a", "to": "b"})
        tracer.end(span, 1.1, {"outcome": "abort_prepare"},
                   track="migration", name="graceful")
        assert TraceChecker(tracer.journal).check() == []

    def test_double_primary_caught(self):
        tracer = Tracer(Journal())
        for replica, address in (("s0#0", "a"), ("s0#1", "b")):
            tracer.instant("shards", "transition", 1.0, {
                "app": "x", "op": "add", "shard": "s0",
                "replica": replica, "address": address,
                "role": "primary", "state": "ready"})
        violations = TraceChecker(tracer.journal).check()
        assert any(v.invariant == "primary-uniqueness" for v in violations)

    def test_map_coverage_miss_caught(self):
        obs, cluster, app = traced_app(settle=60.0)
        snapshot = app.orchestrator.table.snapshot()
        # The real journal covers the whole map ...
        checker = TraceChecker(obs.journal)
        assert checker.check_shard_map(snapshot) == []
        # ... but an empty journal covers none of it.
        missing = TraceChecker(Journal()).check_shard_map(snapshot)
        assert missing
        assert all(v.invariant == "map-coverage" for v in missing)


    @pytest.mark.parametrize("second, invariant", [
        # The next epoch starts before the previous one ended.
        ({"t0": 4.0, "t1": 9.0}, "fluid-epochs"),
        # 100 arrived; 60 + 30 were accounted for.
        ({"ok": 60.0, "failed": 30.0}, "fluid-conservation"),
        ({"healthy_share": 1.2}, "fluid-share"),
        ({"healthy_share": -0.1}, "fluid-share"),
    ])
    def test_fluid_epoch_faults_caught(self, second, invariant):
        def epoch(tracer, **overrides):
            args = {"app": "x", "client": "c", "t0": 0.0, "t1": 5.0,
                    "arrivals": 100.0, "ok": 100.0, "failed": 0.0,
                    "healthy_share": 1.0}
            args.update(overrides)
            tracer.instant("fluid", "epoch", args["t1"], args)

        clean = Tracer(Journal())
        epoch(clean)
        epoch(clean, t0=5.0, t1=10.0)
        # Another client's stream may cover the same interval.
        epoch(clean, client="d")
        assert TraceChecker(clean.journal).check() == []
        broken = Tracer(Journal())
        epoch(broken)
        epoch(broken, **{"t0": 5.0, "t1": 10.0, **second})
        violations = TraceChecker(broken.journal).check()
        assert [v.invariant for v in violations] == [invariant]
        assert "('x', 'c')" in violations[0].message


# -- integration: traced cluster runs ----------------------------------------


class TestTracedClusterRuns:
    def test_tracks_and_invariants(self):
        obs, _cluster, _app = traced_app()
        tracks = obs.journal.tracks()
        assert {"engine", "net", "shards", "solver"} <= set(tracks)
        TraceChecker(obs.journal).assert_clean()

    def test_solver_track_leaves_out_unjournaled_profile_entries(self):
        """The solver's set-up stage and work counter were added after the
        golden digests were recorded; they stay off the journal."""
        from repro.metrics.profiler import Profiler
        from repro.solver.local_search import UNJOURNALED_PROFILE_KEYS
        profile = Profiler()
        profile.add("setup", 0.5)
        profile.add("evaluate", 0.25, calls=7)
        profile.set_counter("equiv_keys", 3)
        profile.set_counter("moves", 2)
        tracer = Tracer(Journal())
        profile.to_trace(tracer, "solver", 1.0, prefix="app.",
                         skip=UNJOURNALED_PROFILE_KEYS)
        records = [(r.name, {k: v for k, v in r.args.items()
                             if not k.startswith("wall")})
                   for r in tracer.journal]
        assert records == [("app.evaluate", {"calls": 7}),
                           ("app.counters", {"moves": 2})]

        obs, _cluster, _app = traced_app()
        solver = [r for r in obs.journal if r.track == "solver"]
        assert solver
        assert not any(r.name.endswith(".setup") for r in solver)
        assert not any("equiv_keys" in (r.args or {}) for r in solver)

    def test_two_traced_runs_bit_identical(self):
        obs1, _c1, _a1 = traced_app()
        obs2, _c2, _a2 = traced_app()
        assert obs1.journal.appended == obs2.journal.appended
        assert obs1.journal.digest() == obs2.journal.digest()

    def test_enabled_tracing_does_not_change_behaviour(self):
        def headline(obs):
            ctx = use(obs) if obs is not None else None
            if ctx:
                ctx.__enter__()
            try:
                cluster = SimCluster.build(regions=("FRC",),
                                           machines_per_region=6, seed=11)
                spec = AppSpec(name="par",
                               shards=uniform_shards(10, 100),
                               replication=ReplicationStrategy.PRIMARY_ONLY)
                app = deploy_app(cluster, spec, {"FRC": 4}, settle=90.0)
                return (cluster.engine.processed_events,
                        cluster.network.rpcs_sent,
                        cluster.network.rpcs_failed,
                        app.orchestrator.table.last_version,
                        app.ready_fraction())
            finally:
                if ctx:
                    ctx.__exit__(None, None, None)

        assert headline(None) == headline(Observability())

    def test_default_context_plumbs_into_harness(self):
        assert get_default() is NO_OBS
        obs = Observability()
        with use(obs):
            assert get_default() is obs
            cluster = SimCluster.build(regions=("FRC",),
                                       machines_per_region=3, seed=1)
            assert cluster.obs is obs
            assert cluster.network.tracer is obs.tracer
        assert get_default() is NO_OBS

    def test_golden_fixture_parity_with_tracing_enabled(self):
        # The pinned golden trace must be byte-identical even with the
        # full observability stack journaling alongside it.
        with use(Observability()):
            observed = _run_scenario()
        expected = json.loads(FIXTURE.read_text())
        assert observed["sha256"] == expected["sha256"]
        assert observed["events"] == expected["events"]
        assert observed["success_rate"] == expected["success_rate"]


# -- satellite: every ACTIVE shard has a journaled transition ----------------


class TestMapCoverageAfterFailover:
    def test_failover_recreates_through_instrumented_path(self):
        obs, cluster, app = traced_app(shards=12, servers=5)
        victim = app.containers[0]
        hosted = app.orchestrator.shards_on(victim.address)
        assert hosted
        with use(obs):
            cluster.twines["FRC"].fail_machine(victim.machine.machine_id)
            cluster.run(until=cluster.engine.now + 60.0)
        assert app.ready_fraction() == 1.0
        # Emergency placement runs through the same AssignmentTable hooks:
        # every routable address in the final map has a READY transition.
        snapshot = app.orchestrator.table.snapshot()
        checker = TraceChecker(obs.journal)
        assert checker.check_shard_map(snapshot) == []
        checker.assert_clean()
        assert any(r.track == "orchestrator" and r.name == "failover"
                   for r in obs.journal)

    def test_mini_sm_partitions_share_instrumentation(self):
        from repro.core.mini_sm import ApplicationManager
        from repro.app.runtime import AppRuntime
        from repro.harness import _echo_handler_factory

        obs = Observability()
        with use(obs):
            cluster = SimCluster.build(regions=("FRC",),
                                       machines_per_region=10, seed=5)
            spec = AppSpec(name="big",
                           shards=uniform_shards(12, 120),
                           replication=ReplicationStrategy.PRIMARY_ONLY)
            manager = ApplicationManager(max_replicas_per_partition=6)
            partitions = manager.partition_app(spec, server_count=6)
            assert len(partitions) == 2
            for index, partition in enumerate(partitions):
                runtime = AppRuntime(
                    engine=cluster.engine,
                    network=cluster.network,
                    zookeeper=cluster.zookeeper,
                    spec=partition.spec,
                    handler_factory=_echo_handler_factory,
                )
                containers = cluster.twines["FRC"].create_job(
                    partition.spec.name, 3)
                runtime.attach(containers)
                partition.start_orchestrator(
                    cluster.engine, cluster.network, cluster.zookeeper,
                    cluster.discovery, cluster.topology,
                    config=OrchestratorConfig(rebalance_enabled=False),
                    obs=obs)
            cluster.run(until=60.0)
        checker = TraceChecker(obs.journal)
        checker.assert_clean()
        for partition in partitions:
            snapshot = partition.orchestrator.table.snapshot()
            assert all(snapshot.primary_at(i) is not None
                       for i in range(len(snapshot)))
            assert checker.check_shard_map(snapshot) == []
            with pytest.raises(RuntimeError):
                partition.start_orchestrator(
                    cluster.engine, cluster.network, cluster.zookeeper,
                    cluster.discovery, cluster.topology)


class TestViolationType:
    def test_violation_formatting(self):
        violation = Violation(invariant="x", message="m", seq=3)
        assert "x" in str(violation) and "m" in str(violation)
        assert violation.as_dict() == {
            "invariant": "x", "message": "m", "seq": 3}
