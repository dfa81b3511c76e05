"""Request-path tests: `_RequestOp` retry semantics and rate clamping.

The router's retry loop is the slotted
:class:`~repro.discovery.router._RequestOp` state machine.  These tests
pin its contract:

* misroute/failure retries exclude already-tried replicas until the
  replica set is exhausted;
* backoff timing, including the quirk that a routing error on the
  *final* attempt still pays one backoff before failing;
* a zero or negative rate curve cannot stall the engine (the clamp
  lives in ``repro.app.client.clamped_rate``).

Seed parity of the request path is pinned by the chaos library's
per-track pins (``tests/test_chaos.py``).
"""

import random

import pytest

from repro.app.client import (ApplicationClient, WorkloadRecorder,
                              clamped_rate)
from repro.core.shard_map import ShardMap, ShardMapEntry
from repro.discovery.router import RoutingError, ServiceRouter
from repro.discovery.service_discovery import ServiceDiscovery
from repro.sim.engine import Engine
from repro.sim.network import JITTER_FRACTION, LatencyModel, Network


def make_map(version=1, app="app", entries=None):
    if entries is None:
        entries = [ShardMapEntry("s0", 0, 100, "srv/a", ("srv/b",))]
    return ShardMap.from_entries(app, version, tuple(entries))


def build_router(attempts=3, rpc_timeout=0.5, retry_backoff=0.1,
                 jitter=JITTER_FRACTION, seed=1):
    engine = Engine()
    latency = LatencyModel()
    latency.jitter_fraction = jitter
    network = Network(engine, latency=latency, rng=random.Random(seed))
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
            rng=random.Random(0),
        )
        # The clamp turns "zero rate" into "next arrival effectively
        # never": the run must terminate (no divide-by-zero, no negative
        # delay, no infinite loop) having sent nothing.
        engine.run()
        assert op.finished
        assert recorder.sent == 0
        assert engine.now > 50.0

