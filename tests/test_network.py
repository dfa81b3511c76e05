"""Unit tests for the simulated network."""

import random

import pytest

from repro.sim.engine import Engine
from repro.sim.network import (
    DEFAULT_INTRA_REGION_LATENCY,
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
        model = LatencyModel(jitter_fraction=0.0)
        assert (model.base_latency("FRC", "FRC")
                == DEFAULT_INTRA_REGION_LATENCY)

    def test_symmetric_matrix(self):
        model = LatencyModel(jitter_fraction=0.0)
        assert model.base_latency("FRC", "PRN") == model.base_latency("PRN", "FRC")

    def test_unknown_pair_raises(self):
        model = LatencyModel()
        with pytest.raises(NetworkError):
            model.base_latency("FRC", "MARS")

    def test_jitter_only_increases_latency(self):
        model = LatencyModel(jitter_fraction=0.5)
        rng = random.Random(7)
        base = model.base_latency("FRC", "PRN")
        for _ in range(50):
            sample = model.sample("FRC", "PRN", rng)
            assert base <= sample <= base * 1.5

    @pytest.mark.parametrize("jitter", [0.0, 0.1, 0.37])
    def test_sample_is_the_uniform_draw_it_replaced(self, jitter):
        # Every seeded latency in the repo hangs off this: the inlined
        # jitter must be the same double, from the same number of draws
        # (none at all without jitter), as rng.uniform(0.0, jitter).
        model = LatencyModel(jitter_fraction=jitter)
        rng, reference = random.Random(7), random.Random(7)
        for _ in range(500):
            base = model.base_latency("FRC", "ODN")
            expected = (base * (1.0 + reference.uniform(0.0, jitter))
                        if jitter else base)
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

    def test_message_loss(self, engine):
        network = Network(Engine(), rng=random.Random(1), loss_probability=1.0)
        engine = network.engine
        _echo_server(network)
        network.register("client", "FRC")
        call = network.rpc("client", "server", "echo", None, timeout=0.5)
        engine.run()
        assert not call.result.ok

    def test_rpc_counters(self, engine, network):
        _echo_server(network)
        network.register("client", "FRC")
        network.rpc("client", "server", "echo", None)
        network.rpc("client", "server", "nosuch", None)
        engine.run()
        assert network.rpcs_sent == 2
        assert network.rpcs_failed == 1

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
