"""Unit tests for the application client, harness, and failure injection."""

import random

import pytest

from repro.app.client import ApplicationClient, WorkloadRecorder
from repro.core.spec import AppSpec, ReplicationStrategy, uniform_shards
from repro.harness import SimCluster, deploy_app
from repro.sim.engine import Engine, every
from repro.sim.failures import CrashInjector
from repro.sim.rng import LOAD_SKEW, skewed_loads, substream


class TestSimCluster:
    def test_build_creates_all_components(self):
        cluster = SimCluster.build(regions=("FRC", "PRN"),
                                   machines_per_region=3, seed=1)
        assert len(cluster.topology.machines) == 6
        assert set(cluster.twines) == {"FRC", "PRN"}

    def test_custom_regions_get_latency(self):
        cluster = SimCluster.build(regions=("XAA", "XBB"),
                                   machines_per_region=2, seed=1)
        assert cluster.network.latency.base_latency("XAA", "XBB") > 0

    def test_deploy_unknown_region_rejected(self):
        cluster = SimCluster.build(regions=("FRC",), machines_per_region=3,
                                   seed=1)
        spec = AppSpec(name="a", shards=uniform_shards(2, 20),
                       replication=ReplicationStrategy.PRIMARY_ONLY)
        with pytest.raises(ValueError):
            deploy_app(cluster, spec, {"MARS": 2})

    def test_without_task_controller(self):
        cluster = SimCluster.build(regions=("FRC",), machines_per_region=4,
                                   seed=1)
        spec = AppSpec(name="a", shards=uniform_shards(2, 20),
                       replication=ReplicationStrategy.PRIMARY_ONLY)
        app = deploy_app(cluster, spec, {"FRC": 2},
                         with_task_controller=False, settle=40.0)
        assert app.controller is None
        assert app.ready_fraction() == 1.0

    @staticmethod
    def _request_latencies(extra_control_rpcs):
        cluster = SimCluster.build(regions=("FRC", "PRN"),
                                   machines_per_region=4, seed=5)
        spec = AppSpec(name="a", shards=uniform_shards(8, 80))
        app = deploy_app(cluster, spec, {"FRC": 2, "PRN": 2}, settle=30.0)
        network = cluster.network
        send = network.rpc
        latencies = []

        def rpc(src, dst, method, payload=None, timeout=None,
                on_complete=None):
            call = send(src, dst, method, payload, timeout, on_complete)
            if method == "app.request":
                call.on_done(lambda result, start=call.start: latencies.append(
                    (start, dst, result.ok, result.latency)))
            return call

        network.rpc = rpc
        if extra_control_rpcs:
            orchestrator = app.orchestrator

            def ping():
                for address in sorted(orchestrator.servers):
                    rpc(orchestrator.address, address, "sm.ping")

            every(cluster.engine, 0.7, ping)
        client = app.client(cluster, "PRN")
        client.run_workload(duration=40.0, rate=lambda t: 20.0,
                            key_fn=lambda rng: rng.randrange(80),
                            recorder=WorkloadRecorder.with_bucket(10.0),
                            rng=random.Random(0))
        cluster.run(until=cluster.engine.now + 45.0)
        return latencies

    def test_control_rpcs_leave_request_latencies_alone(self):
        # Control RPCs draw jitter from their own stream, so adding (or
        # removing) one moves no data-plane draw.
        plain = self._request_latencies(False)
        assert len(plain) > 500
        assert self._request_latencies(True) == plain


class TestClient:
    def _deployed(self):
        cluster = SimCluster.build(regions=("FRC",), machines_per_region=4,
                                   seed=2)
        spec = AppSpec(name="a", shards=uniform_shards(4, 400),
                       replication=ReplicationStrategy.PRIMARY_ONLY)
        app = deploy_app(cluster, spec, {"FRC": 3}, settle=40.0)
        return cluster, app

    def test_client_constructed_directly(self):
        cluster, app = self._deployed()
        client = ApplicationClient(cluster.engine, cluster.network,
                                   cluster.discovery, "a", "client/a/FRC/0",
                                   "FRC")
        process = client.request(5, {"x": 1})
        cluster.run(until=cluster.engine.now + 5.0)
        assert process.outcome.ok

    def test_close_unsubscribes(self):
        cluster, app = self._deployed()
        client = app.client(cluster, "FRC")
        client.close()
        assert not cluster.network.has_endpoint(client.address)

    def test_workload_recorder_counts(self):
        cluster, app = self._deployed()
        client = app.client(cluster, "FRC")
        recorder = WorkloadRecorder.with_bucket(5.0)
        client.run_workload(duration=20.0, rate=lambda t: 10.0,
                            key_fn=lambda rng: rng.randrange(400),
                            recorder=recorder, rng=random.Random(0))
        cluster.run(until=cluster.engine.now + 30.0)
        assert recorder.sent > 100
        assert recorder.succeeded + recorder.failed == recorder.sent
        assert recorder.succeeded == recorder.sent
        assert len(recorder.latency) == recorder.succeeded

    def test_payload_fn_receives_key(self):
        cluster, app = self._deployed()
        client = app.client(cluster, "FRC")
        recorder = WorkloadRecorder.with_bucket(5.0)
        seen_keys = []
        client.run_workload(
            duration=5.0, rate=lambda t: 5.0,
            key_fn=lambda rng: rng.randrange(400),
            recorder=recorder, rng=random.Random(0),
            payload_fn=lambda key: seen_keys.append(key) or {"key": key})
        cluster.run(until=cluster.engine.now + 10.0)
        assert seen_keys
        assert all(0 <= key < 400 for key in seen_keys)


class TestCrashInjector:
    def test_failures_and_repairs_alternate(self):
        engine = Engine()
        events = []
        injector = CrashInjector(
            engine=engine, rng=random.Random(1), mtbf=50.0, repair_time=10.0,
            on_fail=lambda t: events.append(("fail", t, engine.now)),
            on_repair=lambda t: events.append(("repair", t, engine.now)))
        injector.start(["m0", "m1"])
        engine.run(until=500.0)
        assert events
        by_target = {}
        for kind, target, _time in events:
            sequence = by_target.setdefault(target, [])
            if sequence:
                assert sequence[-1] != kind  # strict alternation
            sequence.append(kind)
        assert all(seq[0] == "fail" for seq in by_target.values())

    def test_stop_halts_injection(self):
        engine = Engine()
        count = [0]
        injector = CrashInjector(
            engine=engine, rng=random.Random(1), mtbf=10.0, repair_time=1.0,
            on_fail=lambda t: count.__setitem__(0, count[0] + 1),
            on_repair=lambda t: None)
        injector.start(["m0"])
        injector.stop()
        engine.run(until=200.0)
        assert count[0] == 0

    def test_invalid_mtbf(self):
        injector = CrashInjector(
            engine=Engine(), rng=random.Random(1), mtbf=0.0, repair_time=1.0,
            on_fail=lambda t: None, on_repair=lambda t: None)
        with pytest.raises(ValueError):
            injector.start(["m0"])

    def test_records_kept(self):
        engine = Engine()
        injector = CrashInjector(
            engine=engine, rng=random.Random(2), mtbf=20.0, repair_time=5.0,
            on_fail=lambda t: None, on_repair=lambda t: None)
        injector.start(["m0"])
        engine.run(until=100.0)
        assert injector.records
        for record in injector.records:
            if record.repair_time is not None:
                assert record.repair_time == pytest.approx(
                    record.fail_time + 5.0)


class TestRngHelpers:
    def test_substream_independent_of_order(self):
        a1 = substream(1, "a").random()
        _b = substream(1, "b").random()
        a2 = substream(1, "a").random()
        assert a1 == a2

    def test_substream_distinct_labels_differ(self):
        assert substream(1, "a").random() != substream(1, "b").random()

    def test_skewed_loads_properties(self):
        rng = random.Random(3)
        loads = skewed_loads(rng, 1000, mean=5.0)
        assert len(loads) == 1000
        assert sum(loads) / len(loads) == pytest.approx(5.0)
        assert max(loads) / min(loads) <= LOAD_SKEW + 1e-6

    def test_skewed_loads_validation(self):
        assert skewed_loads(random.Random(1), 0) == []
        assert skewed_loads(random.Random(1), -1) == []
