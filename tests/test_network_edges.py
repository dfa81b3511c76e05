"""Edge-case tests for RPC delivery: races, crashes, and late completions.

These pin the slow paths around the RPC fast path: every failure route
must complete the call exactly once (``done`` fires once, ``rpcs_failed``
counts once) no matter how many failure conditions race.
"""

import random

import pytest

from repro.obs.metrics import Histogram
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine
from repro.sim.network import AsyncReply, Network, wait_rpc


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def network(engine):
    return Network(engine, rng=random.Random(1))


def _echo_server(network, address="server", region="FRC"):
    endpoint = network.register(address, region)
    endpoint.on("echo", lambda payload: {"echo": payload})
    return endpoint


class TestMidFlightCrash:
    def test_destination_crash_while_request_in_flight(self, engine, network):
        _echo_server(network)
        network.register("client", "FRC")
        call = network.rpc("client", "server", "echo", "hi", timeout=1.0)
        # The request is in flight (delivery is scheduled); crash the
        # destination before it arrives.
        network.set_endpoint_up("server", False)
        engine.run()
        assert call.result is not None
        assert not call.result.ok
        assert call.result.error == "timeout"
        # The failure lands at the full caller timeout, not at delivery.
        assert call.result.latency == pytest.approx(1.0)
        assert network.rpcs_failed == 1
        assert call.done.fire_count == 1

    def test_partition_formed_while_request_in_flight(self, engine, network):
        _echo_server(network)
        network.register("client", "PRN")
        call = network.rpc("client", "server", "echo", "hi", timeout=2.0)
        network.partition("FRC", "PRN")
        engine.run()
        assert not call.result.ok
        assert call.result.error == "timeout"
        assert network.rpcs_failed == 1


class TestAsyncReplyTimeout:
    def test_never_settled_reply_times_out(self, engine, network):
        server = network.register("server", "FRC")
        server.on("slow", lambda payload: AsyncReply())  # never settled
        network.register("client", "FRC")
        call = network.rpc("client", "server", "slow", None, timeout=1.0)
        engine.run()
        assert not call.result.ok
        assert call.result.error == "timeout"
        assert call.result.latency == pytest.approx(1.0)
        assert network.rpcs_failed == 1
        assert call.done.fire_count == 1

    def test_reply_settling_after_timeout_does_not_double_complete(
            self, engine, network):
        replies = []

        def slow_handler(payload):
            reply = AsyncReply()
            replies.append(reply)
            return reply

        server = network.register("server", "FRC")
        server.on("slow", slow_handler)
        network.register("client", "FRC")
        call = network.rpc("client", "server", "slow", None, timeout=0.5)
        engine.call_after(5.0, lambda: replies[0].complete("late"))
        engine.run()
        # The timeout won; the late settle sends a response the completed
        # call must ignore.
        assert not call.result.ok
        assert call.result.error == "timeout"
        assert call.done.fire_count == 1
        assert network.rpcs_failed == 1

    def test_reply_failing_after_timeout_counts_failure_once(
            self, engine, network):
        replies = []

        def slow_handler(payload):
            reply = AsyncReply()
            replies.append(reply)
            return reply

        server = network.register("server", "FRC")
        server.on("slow", slow_handler)
        network.register("client", "FRC")
        call = network.rpc("client", "server", "slow", None, timeout=0.5)
        # Two failure routes race: the caller timeout and the failed reply.
        engine.call_after(5.0, lambda: replies[0].fail("boom"))
        engine.run()
        assert not call.result.ok
        assert network.rpcs_failed == 1
        assert call.done.fire_count == 1


class TestLossAndPartitionInterplay:
    def test_partitioned_and_lossy_fails_exactly_once(self, engine):
        network = Network(engine, rng=random.Random(1), loss_probability=1.0)
        _echo_server(network)
        network.register("client", "PRN")
        network.partition("FRC", "PRN")
        call = network.rpc("client", "server", "echo", "hi", timeout=1.0)
        engine.run()
        assert not call.result.ok
        assert call.result.error == "timeout"
        assert network.rpcs_failed == 1
        assert call.done.fire_count == 1

    def test_healed_partition_still_drops_on_loss(self, engine):
        network = Network(engine, rng=random.Random(1), loss_probability=1.0)
        _echo_server(network)
        network.register("client", "PRN")
        network.partition("FRC", "PRN")
        network.heal_partition("FRC", "PRN")
        call = network.rpc("client", "server", "echo", "hi", timeout=1.0)
        engine.run()
        assert not call.result.ok  # loss still applies after the heal
        assert network.rpcs_failed == 1

    def test_healed_partition_without_loss_succeeds(self, engine, network):
        _echo_server(network)
        network.register("client", "PRN")
        network.partition("FRC", "PRN")
        network.heal_partition("FRC", "PRN")
        call = network.rpc("client", "server", "echo", "hi", timeout=5.0)
        engine.run()
        assert call.result.ok
        assert call.result.value == {"echo": "hi"}
        assert network.rpcs_failed == 0


class TestWaitRpcOnCompletedCall:
    def test_wait_rpc_after_completion_returns_immediately(self, engine,
                                                           network):
        _echo_server(network)
        network.register("client", "FRC")
        call = network.rpc("client", "server", "echo", "hi", timeout=5.0)
        engine.run()
        assert call.result is not None  # already settled

        def joiner():
            result = yield from wait_rpc(call)
            return result

        process = engine.process(joiner())
        engine.run()
        assert process.finished
        assert process.result.ok
        assert process.result.value == {"echo": "hi"}

    def test_wait_rpc_before_completion_still_works(self, engine, network):
        _echo_server(network)
        network.register("client", "FRC")
        call = network.rpc("client", "server", "echo", "hi", timeout=5.0)

        def joiner():
            result = yield from wait_rpc(call)
            return result

        process = engine.process(joiner())
        engine.run()
        assert process.finished
        assert process.result.ok


class TestFailureCountRegression:
    def test_every_failed_rpc_counts_exactly_once(self, engine, network):
        """A mix of failure modes: rpcs_failed equals the number of failed
        calls, not the number of failure events."""
        _echo_server(network)
        network.register("client", "FRC")
        calls = []
        # Unknown destination.
        calls.append(network.rpc("client", "ghost", "echo", 1, timeout=0.5))
        # Destination down from the start.
        network.register("down", "FRC")
        network.set_endpoint_up("down", False)
        calls.append(network.rpc("client", "down", "echo", 2, timeout=0.5))
        # Healthy call for contrast.
        ok_call = network.rpc("client", "server", "echo", 3, timeout=5.0)
        engine.run()
        assert all(not call.result.ok for call in calls)
        assert ok_call.result.ok
        assert network.rpcs_failed == len(calls)
        for call in calls + [ok_call]:
            assert call.done.fire_count == 1

    def test_counters_are_per_network_and_each_failure_route_counts_once(
            self, engine):
        """``rpcs_sent`` / ``rpcs_failed`` / ``latency_hist`` are plain
        values of the one network an RPC went through; a timeout, a
        handler error and a response to a downed caller each settle the
        call, close its span and feed the histogram exactly once."""
        tracer = Tracer()
        tracer.bind_clock(engine)
        network = Network(engine, rng=random.Random(1), tracer=tracer)
        network.latency_hist = Histogram("net.rpc_latency_ms")
        other = Network(engine, rng=random.Random(1))

        def boom(payload):
            raise ValueError("boom")

        server = _echo_server(network)
        server.on("boom", boom)
        server.on("never", lambda payload: AsyncReply())
        network.register("client", "FRC")
        network.register("doomed", "FRC")
        timed_out = network.rpc("client", "server", "never", timeout=0.5)
        errored = network.rpc("client", "server", "boom", timeout=5.0)
        orphaned = network.rpc("doomed", "server", "echo", timeout=5.0)
        ok_call = network.rpc("client", "server", "echo", timeout=5.0)
        # Intra-region legs take 1.0-1.1 ms: at 1.5 ms every request has
        # been handled and no response has landed.
        engine.run(until=0.0015)
        network.set_endpoint_up("doomed", False)
        engine.run()

        assert timed_out.result.error == "timeout"
        assert errored.result.error == "ValueError: boom"
        assert orphaned.result.error == "caller down"
        assert ok_call.result.ok
        assert (network.rpcs_sent, network.rpcs_failed) == (4, 3)
        assert network.latency_hist.total == 4
        assert (other.rpcs_sent, other.rpcs_failed) == (0, 0)
        assert other.latency_hist is None
        ends = [r.span for r in tracer.journal
                if r.track == "net" and r.kind == "E"]
        assert sorted(ends) == [1, 2, 3, 4]
        for call in (timed_out, errored, orphaned, ok_call):
            assert call.done.fire_count == 1
