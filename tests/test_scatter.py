"""Scatter-gather app: queued handlers, merge-at-slowest, checker audit.

Three layers:

* :class:`QueuedServiceHandler` in isolation — the Lindley recursion
  (response time = queueing delay + service time) on a bare engine;
* :class:`ScatterGatherClient` end to end on a deployed app — one
  logical outcome per scatter, latency equal to the slowest leg, and a
  journal the TraceChecker accepts;
* the ``scatter-protocol`` invariant on fabricated bad journals — a
  merge that lies about its legs must be caught.
"""

import random

import pytest

from repro.app.scatter import QueuedServiceHandler, ScatterGatherClient, \
    queued_handler_factory
from repro.app.client import WorkloadRecorder
from repro.core.spec import AppSpec, uniform_shards
from repro.harness import SimCluster, deploy_app
from repro.obs import Observability, TraceChecker, use
from repro.obs.tracer import Journal, Tracer
from repro.sim.engine import Engine


class TestQueuedServiceHandler:
    def test_idle_server_serves_in_service_time(self):
        engine = Engine()
        handler = QueuedServiceHandler(engine, 0.1, address="s0")
        done_at = []
        reply = handler("shard0", {})
        reply._on_settle(lambda *_: done_at.append(engine.now))
        engine.run(until=1.0)
        assert done_at == [pytest.approx(0.1)]
        assert handler.served == 1

    def test_backlog_queues_fifo(self):
        engine = Engine()
        handler = QueuedServiceHandler(engine, 0.1, address="s0")
        done_at = []
        for _ in range(3):  # three simultaneous arrivals at t=0
            handler("shard0", {})._on_settle(
                lambda *_: done_at.append(engine.now))
        assert handler.busy_until == pytest.approx(0.3)
        engine.run(until=1.0)
        assert done_at == [pytest.approx(0.1), pytest.approx(0.2),
                           pytest.approx(0.3)]

    def test_queue_drains_when_idle(self):
        engine = Engine()
        handler = QueuedServiceHandler(engine, 0.1)
        handler("shard0", {})
        engine.run(until=5.0)
        assert handler.busy_until <= engine.now
        # A late arrival starts fresh, not behind the long-gone backlog.
        done_at = []
        handler("shard0", {})._on_settle(lambda *_: done_at.append(engine.now))
        engine.run(until=10.0)
        assert done_at == [pytest.approx(5.1)]

    def test_rejects_nonpositive_service_time(self):
        with pytest.raises(ValueError):
            QueuedServiceHandler(Engine(), 0.0)


def _deploy_scatter_app(seed=3, servers=4, shards=8, service_time=0.05):
    cluster = SimCluster.build(regions=("prod",), machines_per_region=servers,
                               seed=seed)
    spec = AppSpec(name="scat",
                   shards=uniform_shards(shards, key_space=shards * 16,
                                         replica_count=1),
                   spread_levels=())
    handlers = {}
    app = deploy_app(cluster, spec, {"prod": servers},
                     handler_factory=queued_handler_factory(
                         cluster, service_time, registry=handlers),
                     settle=40.0)
    return cluster, app, handlers


class TestScatterGather:
    def test_merge_waits_for_slowest_leg(self):
        obs = Observability()
        with use(obs):
            cluster, app, handlers = _deploy_scatter_app()
            client = ScatterGatherClient(
                app.client(cluster, "prod", name="sc"), key_space=128,
                fanout=4)
            outcomes = []
            client.start_request(0, None, True, outcomes.append)
            cluster.run(until=cluster.engine.now + 20.0)
        assert len(outcomes) == 1
        outcome = outcomes[0]
        assert outcome.ok
        legs = [r for r in obs.journal
                if r.track == "scatter" and r.name == "leg"]
        assert len(legs) == 4
        # One logical latency: the max over the four legs, measured from
        # the shared fan-out instant.
        assert outcome.latency == pytest.approx(
            max(leg.time for leg in legs) - min(
                r.time for r in obs.journal
                if r.track == "scatter" and r.name == "fanout"))
        assert outcome.latency >= max(leg.args["latency"] for leg in legs)

    def test_legs_span_distinct_shards(self):
        obs = Observability()
        with use(obs):
            cluster, app, _ = _deploy_scatter_app()
            client = ScatterGatherClient(
                app.client(cluster, "prod", name="sc"), key_space=128,
                fanout=4)
            client.start_request(5, None, True, None)
            cluster.run(until=cluster.engine.now + 20.0)
        legs = [r.args["shard"] for r in obs.journal
                if r.track == "scatter" and r.name == "leg"]
        assert len(set(legs)) == 4  # stride = key_space/fanout: 4 shards

    def test_workload_journal_passes_checker(self):
        obs = Observability()
        with use(obs):
            cluster, app, _ = _deploy_scatter_app()
            client = ScatterGatherClient(
                app.client(cluster, "prod", name="sc"), key_space=128,
                fanout=3)
            recorder = WorkloadRecorder.with_bucket(10.0)
            client.run_workload(60.0, lambda t: 4.0,
                                lambda rng: rng.randrange(128), recorder,
                                random.Random(0))
            cluster.run(until=cluster.engine.now + 80.0)
        assert recorder.sent > 0
        assert recorder.succeeded == recorder.sent
        assert TraceChecker(obs.journal).check() == []

    def test_validation(self):
        engine_client = object.__new__(ScatterGatherClient)  # no network
        with pytest.raises(ValueError):
            ScatterGatherClient.__init__(engine_client, None, key_space=0)
        with pytest.raises(ValueError):
            ScatterGatherClient.__init__(engine_client, None, key_space=8,
                                         fanout=0)


class TestScatterInvariant:
    """The ``scatter-protocol`` checker track on fabricated journals."""

    @staticmethod
    def _fanout(tracer, sid, legs, at=1.0):
        tracer.instant("scatter", "fanout", at,
                       {"scatter": sid, "legs": legs, "key": 0})

    @staticmethod
    def _leg(tracer, sid, at, ok=True):
        tracer.instant("scatter", "leg", at,
                       {"scatter": sid, "ok": ok, "shard": "s", "latency": 0.1})

    @staticmethod
    def _merge(tracer, sid, legs, failed=0, ok=None, at=2.0):
        tracer.instant("scatter", "merge", at,
                       {"scatter": sid, "ok": legs and failed == 0
                        if ok is None else ok,
                        "legs": legs, "failed_legs": failed, "latency": 1.0})

    def _violations(self, tracer):
        return [v for v in TraceChecker(tracer.journal).check()
                if v.invariant == "scatter-protocol"]

    def test_clean_scatter_passes(self):
        tracer = Tracer(Journal())
        self._fanout(tracer, "c/0", 2)
        self._leg(tracer, "c/0", 1.2)
        self._leg(tracer, "c/0", 1.5)
        self._merge(tracer, "c/0", 2)
        assert self._violations(tracer) == []

    def test_in_flight_scatter_passes(self):
        tracer = Tracer(Journal())
        self._fanout(tracer, "c/0", 2)
        self._leg(tracer, "c/0", 1.2)  # second leg still in flight: fine
        assert self._violations(tracer) == []

    def test_merge_with_missing_leg_caught(self):
        tracer = Tracer(Journal())
        self._fanout(tracer, "c/0", 3)
        self._leg(tracer, "c/0", 1.2)
        self._leg(tracer, "c/0", 1.5)
        self._merge(tracer, "c/0", 3)  # claims 3 legs, journal has 2
        assert self._violations(tracer)

    def test_double_fanout_caught(self):
        tracer = Tracer(Journal())
        self._fanout(tracer, "c/0", 1)
        self._fanout(tracer, "c/0", 1, at=1.1)
        self._leg(tracer, "c/0", 1.2)
        self._merge(tracer, "c/0", 1)
        assert [v.message for v in self._violations(tracer)] == [
            "scatter 'c/0' fanned out twice"]

    def test_double_merge_caught(self):
        tracer = Tracer(Journal())
        self._fanout(tracer, "c/0", 1)
        self._leg(tracer, "c/0", 1.2)
        self._merge(tracer, "c/0", 1)
        self._merge(tracer, "c/0", 1, at=3.0)
        assert self._violations(tracer)

    def test_ok_flag_contradicting_failed_legs_caught(self):
        tracer = Tracer(Journal())
        self._fanout(tracer, "c/0", 2)
        self._leg(tracer, "c/0", 1.2, ok=False)
        self._leg(tracer, "c/0", 1.5)
        self._merge(tracer, "c/0", 2, failed=1, ok=True)  # lies
        assert self._violations(tracer)

    def test_merge_before_fanout_caught(self):
        tracer = Tracer(Journal())
        self._fanout(tracer, "c/0", 1, at=5.0)
        self._leg(tracer, "c/0", 5.5)
        self._merge(tracer, "c/0", 1, at=4.0)  # merged before it fanned out
        assert self._violations(tracer)
