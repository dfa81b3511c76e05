"""Request-path tests: `_RequestOp` retry semantics and seed parity.

The router's retry loop is the slotted
:class:`~repro.discovery.router._RequestOp` state machine.  These tests
pin its contract:

* misroute/failure retries exclude already-tried replicas until the
  replica set is exhausted;
* backoff timing, including the quirk that a routing error on the
  *final* attempt still pays one backoff before failing;
* a zero or negative rate curve cannot stall the engine (satellite of
  the same PR: the clamp now lives in ``repro.app.client.clamped_rate``);
* a fig18-style diurnal slice replays bit-identically against a golden
  fixture (``GOLDEN_REGEN=1`` regenerates it, as for fig17).
"""

import hashlib
import json
import os
import random
from pathlib import Path

import pytest

from repro.app.client import (ApplicationClient, WorkloadRecorder,
                              clamped_rate)
from repro.core.shard_map import ShardMap, ShardMapEntry
from repro.discovery.router import RoutingError, ServiceRouter
from repro.discovery.service_discovery import ServiceDiscovery
from repro.sim.engine import Engine
from repro.sim.network import LatencyModel, Network
from repro.workloads.load import DiurnalCurve, ZipfKeySampler

FIG18_FIXTURE = Path(__file__).parent / "fixtures" / "golden_trace_fig18.json"


def make_map(version=1, app="app", entries=None):
    if entries is None:
        entries = [ShardMapEntry("s0", 0, 100, "srv/a", ("srv/b",))]
    return ShardMap(app=app, version=version, entries=tuple(entries))


def build_router(attempts=3, rpc_timeout=0.5, retry_backoff=0.1,
                 jitter=0.1, seed=1):
    engine = Engine()
    network = Network(engine,
                      latency=LatencyModel(jitter_fraction=jitter),
                      rng=random.Random(seed))
    network.register("client", "FRC")
    router = ServiceRouter(engine, network, "client", attempts=attempts,
                           rpc_timeout=rpc_timeout,
                           retry_backoff=retry_backoff)
    return engine, network, router


def run_request(router, key, payload):
    """Fire one request through the state machine; wait for it."""
    outcomes = []
    op = router.start_request(key, payload, on_done=outcomes.append)
    assert op.outcome is None  # not settled until the engine runs
    router.engine.run()
    assert outcomes == [op.outcome]
    return op.outcome


class TestRetryStateMachine:
    def test_timeout_then_retry_succeeds(self):
        engine, network, router = build_router(attempts=3)
        network.register("a", "FRC")
        backup = network.register("b", "FRC")
        backup.on("app.request", lambda m: f"b-served-{m['key']}")
        network.set_endpoint_up("a", False)  # primary times out
        router.on_map_update(make_map(
            entries=[ShardMapEntry("s0", 0, 100, "a", ("b",))]))
        outcome = run_request(router, 5, "payload")
        assert outcome.ok
        assert outcome.value == "b-served-5"
        assert outcome.attempts == 2  # timeout on a, success on b
        assert outcome.shard_id == "s0"
        # attempt 1 burned the full rpc_timeout, then one backoff
        assert outcome.latency > 0.5 + 0.1

    def test_misroute_exclusion_exhausts_replicas(self):
        engine, network, router = build_router(attempts=3)
        arrivals = []

        def misrouted(name):
            def handler(message):
                arrivals.append((name, message["shard_id"]))
                raise RuntimeError(f"{name} does not own the shard")
            return handler

        network.register("a", "FRC").on("app.request", misrouted("a"))
        network.register("b", "FRC").on("app.request", misrouted("b"))
        router.on_map_update(make_map(
            entries=[ShardMapEntry("s0", 0, 100, "a", ("b",))]))
        outcome = run_request(router, 5, None)
        # Each replica is tried exactly once; the third attempt finds the
        # candidate set empty and surfaces the routing error.
        assert arrivals == [("a", "s0"), ("b", "s0")]
        assert not outcome.ok
        assert outcome.attempts == 3
        assert "no routable replica" in outcome.error


class TestBackoffTiming:
    def test_backoff_between_failed_attempts(self):
        # Zero jitter: every one-way hop is exactly the 1 ms intra-region
        # base, so attempt timing is fully deterministic.
        engine, network, router = build_router(
            attempts=2, retry_backoff=0.25, jitter=0.0)
        times = []

        def failing(message):
            times.append(engine.now)
            raise RuntimeError("down")

        network.register("a", "FRC").on("app.request", failing)
        network.register("b", "FRC").on("app.request", failing)
        router.on_map_update(make_map(
            entries=[ShardMapEntry("s0", 0, 100, "a", ("b",))]))
        outcome = run_request(router, 5, None)
        # attempt 1 arrives after one hop; its error returns one hop
        # later; the retry waits retry_backoff and takes another hop.
        assert times == pytest.approx([0.001, 0.001 + 0.001 + 0.25 + 0.001])
        assert not outcome.ok
        # final-attempt RPC failure fails immediately (no trailing backoff)
        assert outcome.latency == pytest.approx(0.254)

    def test_routing_error_on_final_attempt_pays_backoff(self):
        # No shard map at all: every attempt raises RoutingError, and the
        # last one still sleeps retry_backoff before failing.
        engine, _network, router = build_router(
            attempts=2, retry_backoff=0.25, jitter=0.0)
        outcome = run_request(router, 5, None)
        assert not outcome.ok
        assert "no shard map" in outcome.error
        assert engine.now == pytest.approx(0.5)  # two backoffs, no RPCs
        assert outcome.latency == pytest.approx(0.5)


class TestRateClamping:
    def test_clamped_rate_floors_zero_and_negative(self):
        assert clamped_rate(0.0) == 1e-9
        assert clamped_rate(-5.0) == 1e-9
        assert clamped_rate(2.5) == 2.5

    @pytest.mark.parametrize("bad_rate", [0.0, -3.0])
    def test_degenerate_rate_curve_cannot_stall_engine(self, bad_rate):
        engine = Engine()
        network = Network(engine, rng=random.Random(1))
        discovery = ServiceDiscovery(engine, base_delay=0.0, jitter=0.0)
        discovery.publish(make_map(
            entries=[ShardMapEntry("s0", 0, 100, "srv/a", ())]))
        client = ApplicationClient(engine, network, discovery, "app",
                                   "client/app/FRC/0", "FRC")
        recorder = WorkloadRecorder.with_bucket(10.0)
        op = client.run_workload(
            duration=50.0,
            rate=lambda t: bad_rate,
            key_fn=lambda rng: rng.randrange(100),
            recorder=recorder,
        )
        # The clamp turns "zero rate" into "next arrival effectively
        # never": the run must terminate (no divide-by-zero, no negative
        # delay, no infinite loop) having sent nothing.
        engine.run()
        assert op.finished
        assert recorder.sent == 0
        assert engine.now > 50.0


# -- fig18-style golden slice -------------------------------------------------


def _run_fig18_slice():
    """A small diurnal-workload slice in the fig18 mould.

    Single region, diurnal request rate over two short "days", zipfian
    keys, periodic rebalancing — enough churn to exercise the workload
    driver, the route cache across map updates, and retries, while
    staying a few sim-minutes long.
    """
    from repro.cluster.twine import TwineConfig
    from repro.core.orchestrator import OrchestratorConfig
    from repro.core.spec import (AppSpec, LoadBalancePolicy,
                                 ReplicationStrategy, uniform_shards)
    from repro.harness import SimCluster, deploy_app

    day = 240.0
    cluster = SimCluster.build(
        regions=("FRC",),
        machines_per_region=8,
        seed=18,
        twine_config=TwineConfig(negotiation_interval=5.0),
        discovery_base_delay=2.0,
        discovery_jitter=3.0,
    )
    engine = cluster.engine
    trace = []

    network = cluster.network
    original_rpc = network.rpc

    def traced_rpc(src_address, dst_address, method, payload=None,
                   timeout=None, **kwargs):
        call = original_rpc(src_address, dst_address, method, payload,
                            timeout, **kwargs)
        trace.append(f"rpc {engine.now!r} {method} {dst_address}")

        def record(result, method=method):
            trace.append(f"done {engine.now!r} {method} {int(result.ok)}")

        call.on_done(record)
        return call

    network.rpc = traced_rpc

    discovery = cluster.discovery
    original_publish = discovery.publish

    def traced_publish(shard_map, delta=None):
        trace.append(f"publish {engine.now!r} v{shard_map.version} "
                     f"{len(shard_map)}")
        original_publish(shard_map, delta=delta)

    discovery.publish = traced_publish

    spec = AppSpec(
        name="diurnal",
        shards=uniform_shards(40, key_space=800),
        replication=ReplicationStrategy.PRIMARY_ONLY,
        lb_policy=LoadBalancePolicy.SINGLE_RESOURCE,
        lb_metrics=("request_rate",),
    )
    deploy_app(
        cluster, spec, {"FRC": 5},
        orchestrator_config=OrchestratorConfig(
            graceful_migration=True,
            rebalance_interval=30.0,
            load_poll_interval=10.0,
        ),
        settle=30.0,
    )
    client = ApplicationClient(engine, network, discovery, spec.name,
                               f"client/{spec.name}/FRC/0", "FRC",
                               attempts=2, rpc_timeout=0.5, retry_backoff=0.2)
    recorder = WorkloadRecorder.with_bucket(20.0)
    curve = DiurnalCurve(base=2.0, peak=10.0, period=day)
    op = client.run_workload(
        duration=2 * day,
        rate=curve,
        key_fn=ZipfKeySampler(800, skew=1.3, support=40),
        recorder=recorder,
        rng=random.Random(180),
    )
    cluster.run(until=engine.now + 2 * day + 30.0)

    total = recorder.succeeded + recorder.failed
    return {
        "events": len(trace),
        "sha256": hashlib.sha256("\n".join(trace).encode()).hexdigest(),
        "prefix": trace[:40],
        "requests": total,
        "success_rate": recorder.succeeded / max(1, total),
        "finished": op.finished,
    }


def test_fig18_style_golden_trace():
    observed = _run_fig18_slice()
    if os.environ.get("GOLDEN_REGEN"):
        FIG18_FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIG18_FIXTURE.write_text(json.dumps(observed, indent=1,
                                            sort_keys=True) + "\n")
    expected = json.loads(FIG18_FIXTURE.read_text())
    assert observed["prefix"] == expected["prefix"]
    assert observed["events"] == expected["events"]
    assert observed["sha256"] == expected["sha256"]
    assert observed["requests"] == expected["requests"]
    assert observed["success_rate"] == expected["success_rate"]
    assert observed["finished"] == expected["finished"]
