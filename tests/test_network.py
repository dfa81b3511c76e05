"""Unit tests for the simulated network."""

import random

import pytest

from repro.sim.engine import Engine
from repro.sim.network import (
    DEFAULT_INTRA_REGION_LATENCY,
    JITTER_FRACTION,
    AsyncReply,
    LatencyModel,
    Network,
    NetworkError,
)


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


class TestLatencyModel:
    def test_intra_region_latency(self):
        model = LatencyModel()
        assert (model.base_latency("FRC", "FRC")
                == DEFAULT_INTRA_REGION_LATENCY)

    def test_symmetric_matrix(self):
        model = LatencyModel()
        assert model.base_latency("FRC", "PRN") == model.base_latency("PRN", "FRC")

    def test_unknown_pair_raises(self):
        model = LatencyModel()
        with pytest.raises(NetworkError):
            model.base_latency("FRC", "MARS")

    def test_jitter_only_increases_latency(self):
        model = LatencyModel()
        rng = random.Random(7)
        base = model.base_latency("FRC", "PRN")
        for _ in range(50):
            sample = model.sample("FRC", "PRN", rng)
            assert base <= sample <= base * (1.0 + JITTER_FRACTION)

    @pytest.mark.parametrize("jitter", [0.0, 0.1, 0.37])
    def test_sample_is_the_uniform_draw_it_replaced(self, jitter):
        # Every seeded latency in the repo hangs off this: the inlined
        # jitter must be the same double, from the same number of draws
        # (one per hop), as rng.uniform(0.0, jitter) — also at widths
        # other than JITTER_FRACTION, set on the instance.
        model = LatencyModel()
        model.jitter_fraction = jitter
        rng, reference = random.Random(7), random.Random(7)
        for _ in range(500):
            base = model.base_latency("FRC", "ODN")
            expected = base * (1.0 + reference.uniform(0.0, jitter))
            assert model.sample("FRC", "ODN", rng) == expected
        assert rng.getstate() == reference.getstate()

    def test_regions_listed(self):
        assert {"FRC", "PRN", "ODN"} <= LatencyModel().regions()


class TestRpc:
    def test_roundtrip_delivers_value(self, engine, network):
        _echo_server(network)
        network.register("client", "PRN")
        call = network.rpc("client", "server", "echo", "hi")
        engine.run()
        assert call.result.ok
        assert call.result.value == {"echo": "hi"}

    def test_latency_is_two_one_way_trips(self, engine, network):
        _echo_server(network)
        network.register("client", "PRN")
        call = network.rpc("client", "server", "echo", None)
        engine.run()
        base = network.latency.base_latency("PRN", "FRC")
        assert call.result.latency >= 2 * base

    def test_unknown_method_fails(self, engine, network):
        _echo_server(network)
        network.register("client", "FRC")
        call = network.rpc("client", "server", "nosuch", None)
        engine.run()
        assert not call.result.ok

    def test_handler_exception_becomes_error(self, engine, network):
        endpoint = network.register("server", "FRC")
        endpoint.on("boom", lambda _p: (_ for _ in ()).throw(ValueError("x")))
        network.register("client", "FRC")
        call = network.rpc("client", "server", "boom", None)
        engine.run()
        assert not call.result.ok
        assert "ValueError" in call.result.error

    def test_down_destination_times_out(self, engine, network):
        _echo_server(network)
        network.register("client", "FRC")
        network.set_endpoint_up("server", False)
        call = network.rpc("client", "server", "echo", None, timeout=2.0)
        engine.run()
        assert not call.result.ok
        assert call.result.error == "timeout"
        assert call.result.latency == pytest.approx(2.0)

    def test_unknown_destination_times_out(self, engine, network):
        network.register("client", "FRC")
        call = network.rpc("client", "nowhere", "echo", None, timeout=1.0)
        engine.run()
        assert not call.result.ok

    def test_destination_crash_mid_flight_times_out(self, engine, network):
        _echo_server(network)
        network.register("client", "PRN")
        call = network.rpc("client", "server", "echo", None, timeout=1.0)
        # Crash before the request is delivered (cross-region latency
        # exceeds this tiny delay).
        engine.call_after(0.001, lambda: network.set_endpoint_up("server", False))
        engine.run()
        assert not call.result.ok

    def test_partition_blocks_traffic(self, engine, network):
        _echo_server(network)
        network.register("client", "PRN")
        network.partition("FRC", "PRN")
        call = network.rpc("client", "server", "echo", None, timeout=1.0)
        engine.run()
        assert not call.result.ok

    def test_heal_partition_restores_traffic(self, engine, network):
        _echo_server(network)
        network.register("client", "PRN")
        network.partition("FRC", "PRN")
        network.heal_partition("FRC", "PRN")
        call = network.rpc("client", "server", "echo", None)
        engine.run()
        assert call.result.ok

    def test_rpc_counters(self, engine, network):
        _echo_server(network)
        network.register("client", "FRC")
        network.rpc("client", "server", "echo", None)
        network.rpc("client", "server", "nosuch", None)
        engine.run()
        assert network.rpcs_sent == 2
        assert network.rpcs_failed == 1

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("path", ["healthy", "down", "partitioned"])
    def test_timeout_not_above_zero_raises_at_the_call(self, engine,
                                                       network, path,
                                                       timeout):
        # The same answer on every path, before anything is scheduled.
        _echo_server(network)
        network.register("client", "PRN")
        if path == "down":
            network.set_endpoint_up("server", False)
        elif path == "partitioned":
            network.partition("FRC", "PRN")
        with pytest.raises(NetworkError, match="timeout must be > 0"):
            network.rpc("client", "server", "echo", None, timeout=timeout)
        assert network.rpcs_sent == 0
        assert engine.pending_events == 0

    def test_duplicate_registration_raises(self, network):
        network.register("x", "FRC")
        with pytest.raises(NetworkError):
            network.register("x", "FRC")

    def test_unregister_then_reregister(self, network):
        network.register("x", "FRC")
        network.unregister("x")
        network.register("x", "PRN")
        assert network.endpoint("x").region == "PRN"

    def test_wait_on_done_signal_from_process(self, engine, network):
        _echo_server(network)
        network.register("client", "FRC")
        results = []

        def proc():
            result = yield network.rpc("client", "server", "echo", 7)
            results.append(result.value)

        engine.process(proc())
        engine.run()
        assert results == [{"echo": 7}]


class TestAsyncReply:
    def test_deferred_completion(self, engine, network):
        endpoint = network.register("server", "FRC")
        replies = []

        def handler(_payload):
            reply = AsyncReply()
            replies.append(reply)
            return reply

        endpoint.on("slow", handler)
        network.register("client", "FRC")
        call = network.rpc("client", "server", "slow", None, timeout=10.0)
        engine.run(until=1.0)  # request delivered, reply pending
        assert call.result is None
        replies[0].complete("finally")
        engine.run(until=2.0)
        assert call.result.ok
        assert call.result.value == "finally"

    def test_unsettled_reply_times_out(self, engine, network):
        endpoint = network.register("server", "FRC")
        endpoint.on("never", lambda _p: AsyncReply())
        network.register("client", "FRC")
        call = network.rpc("client", "server", "never", None, timeout=3.0)
        engine.run()
        assert not call.result.ok
        assert call.result.error == "timeout"

    def test_deferred_failure(self, engine, network):
        endpoint = network.register("server", "FRC")
        holder = []
        endpoint.on("slow", lambda _p: holder.append(AsyncReply()) or holder[0])
        network.register("client", "FRC")
        call = network.rpc("client", "server", "slow", None)
        engine.run(until=0.1)
        holder[0].fail("nope")
        engine.run(until=0.2)
        assert not call.result.ok
        assert call.result.error == "nope"

    def test_double_settle_raises(self):
        reply = AsyncReply()
        reply.complete(1)
        with pytest.raises(NetworkError):
            reply.complete(2)

    @pytest.mark.parametrize("settled", [False, True])
    def test_one_subscriber(self, settled):
        reply = AsyncReply()
        seen = []
        if settled:
            reply.complete(1)
        subscriber = lambda *settled_as: seen.append(settled_as)
        reply._on_settle(subscriber)
        with pytest.raises(NetworkError, match="subscribed to twice"):
            reply._on_settle(subscriber)
        if not settled:
            assert seen == []
            reply.complete(1)
        assert seen == [(True, 1, "")]


class TestRead:
    def test_runs_the_handler_now_and_returns_its_value(self, engine,
                                                          network):
        _echo_server(network)
        network.register("client", "PRN")
        state = network.rng.getstate()
        assert network.read("client", "server", "echo") == {"echo": None}
        # No RPC, no event, no draw.
        assert network.rpcs_sent == 0
        assert engine.pending_events == 0
        assert network.rng.getstate() == state

    @pytest.mark.parametrize("cut", ["unknown source", "unknown destination",
                                     "source down", "destination down",
                                     "partition"])
    def test_none_when_the_endpoints_cannot_talk(self, network, cut):
        calls = []
        network.register("server", "FRC").on("echo", calls.append)
        network.register("client", "PRN")
        src, dst = "client", "server"
        if cut == "unknown source":
            src = "nobody"
        elif cut == "unknown destination":
            dst = "nobody"
        elif cut == "source down":
            network.set_endpoint_up("client", False)
        elif cut == "destination down":
            network.set_endpoint_up("server", False)
        else:
            network.partition("FRC", "PRN")
        assert network.read(src, dst, "echo") is None
        assert calls == []  # the handler did not run


class TestJitterStreams:
    def _pair(self, engine, control_rng):
        network = Network(engine, rng=random.Random(1),
                          control_rng=control_rng)
        for address in ("a", "b"):
            endpoint = network.register(address, "FRC")
            endpoint.on("app.request", lambda payload: payload)
            endpoint.on("sm.ping", lambda payload: "pong")
        return network

    def test_control_rpcs_draw_from_their_own_stream(self, engine):
        control = random.Random(2)
        network = self._pair(engine, control)
        data_state = network.rng.getstate()
        network.rpc("a", "b", "sm.ping")
        engine.run()
        # Both legs of the control RPC drew from the control stream.
        assert network.rng.getstate() == data_state
        expected = random.Random(2)
        for _leg in ("request", "response"):
            expected.random()
        assert control.getstate() == expected.getstate()
        network.rpc("a", "b", "app.request")
        engine.run()
        assert network.rng.getstate() != data_state
        assert control.getstate() == expected.getstate()

    def test_without_a_control_stream_everything_shares_one(self, engine):
        network = self._pair(engine, None)
        assert network.control_rng is network.rng
