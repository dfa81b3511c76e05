"""Edge-case tests for RPC delivery: races, crashes, and late completions.

These pin the slow paths around the RPC fast path: every failure route
must complete the call exactly once (each listener hears one completion,
``rpcs_failed`` counts once) no matter how many failure conditions race,
and a caller hears the same completion at the same instant whether it
passed ``on_complete`` or is a process that yielded the call.
"""

import random

import pytest

from repro.metrics import Histogram
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine
from repro.sim.network import AsyncReply, Network


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


def _watched_rpc(engine, network, *args, **kwargs):
    """``network.rpc`` with both kinds of listener attached before the
    call can settle: returns the call and the list every completion
    either of them hears is appended to."""
    heard = []
    call = network.rpc(
        *args, on_complete=lambda r: heard.append(("on_complete", r)),
        **kwargs)

    def waiter():
        heard.append(("process", (yield call)))

    engine.process(waiter())
    return call, heard


def _assert_completed_once(call, heard):
    assert heard == [("on_complete", call.result), ("process", call.result)]


class TestMidFlightCrash:
    def test_destination_crash_while_request_in_flight(self, engine, network):
        _echo_server(network)
        network.register("client", "FRC")
        call, heard = _watched_rpc(engine, network, "client", "server",
                                   "echo", "hi", timeout=1.0)
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
        _assert_completed_once(call, heard)

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
        call, heard = _watched_rpc(engine, network, "client", "server",
                                   "slow", None, timeout=1.0)
        engine.run()
        assert not call.result.ok
        assert call.result.error == "timeout"
        assert call.result.latency == pytest.approx(1.0)
        assert network.rpcs_failed == 1
        _assert_completed_once(call, heard)

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
        call, heard = _watched_rpc(engine, network, "client", "server",
                                   "slow", None, timeout=0.5)
        engine.call_after(5.0, lambda: replies[0].complete("late"))
        engine.run()
        # The timeout won; the late settle sends a response the completed
        # call must ignore.
        assert not call.result.ok
        assert call.result.error == "timeout"
        _assert_completed_once(call, heard)
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
        call, heard = _watched_rpc(engine, network, "client", "server",
                                   "slow", None, timeout=0.5)
        # Two failure routes race: the caller timeout and the failed reply.
        engine.call_after(5.0, lambda: replies[0].fail("boom"))
        engine.run()
        assert not call.result.ok
        assert network.rpcs_failed == 1
        _assert_completed_once(call, heard)


class TestLossAndPartitionInterplay:
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


class TestYieldingACall:
    def test_yielding_a_settled_call_resumes(self, engine, network):
        """Broadcast first, collect later: by the time a process yields
        the call it may have settled, and it must still be resumed."""
        _echo_server(network)
        network.register("client", "FRC")
        call = network.rpc("client", "server", "echo", "hi", timeout=5.0)
        engine.run()
        assert call.result is not None  # already settled
        settled_at = engine.now

        def joiner():
            result = yield call
            return result, engine.now

        process = engine.process(joiner())
        assert not process.finished  # resumed by an event, not in place
        engine.run()
        assert process.finished
        assert process.result == (call.result, settled_at)
        assert call.result.value == {"echo": "hi"}

    def test_yielding_an_unsettled_call_waits(self, engine, network):
        _echo_server(network)
        network.register("client", "FRC")
        call = network.rpc("client", "server", "echo", "hi", timeout=5.0)

        def joiner():
            result = yield call
            return result, engine.now

        process = engine.process(joiner())
        engine.run(until=0.0015)  # request handled, response in flight
        assert call.result is None and not process.finished
        engine.run()
        assert process.finished
        assert process.result == (call.result, call.result.latency)
        assert call.result.ok


class TestFailureCountRegression:
    def test_every_failed_rpc_counts_exactly_once(self, engine, network):
        """A mix of failure modes: rpcs_failed equals the number of failed
        calls, not the number of failure events."""
        _echo_server(network)
        network.register("client", "FRC")
        failing = []
        # Unknown destination.
        failing.append(_watched_rpc(engine, network, "client", "ghost",
                                    "echo", 1, timeout=0.5))
        # Destination down from the start.
        network.register("down", "FRC")
        network.set_endpoint_up("down", False)
        failing.append(_watched_rpc(engine, network, "client", "down",
                                    "echo", 2, timeout=0.5))
        # Healthy call for contrast.
        healthy = _watched_rpc(engine, network, "client", "server",
                               "echo", 3, timeout=5.0)
        engine.run()
        assert all(not call.result.ok for call, _ in failing)
        assert healthy[0].result.ok
        assert network.rpcs_failed == len(failing)
        for call, heard in failing + [healthy]:
            _assert_completed_once(call, heard)

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
        watched = [
            _watched_rpc(engine, network, "client", "server", "never",
                         timeout=0.5),
            _watched_rpc(engine, network, "client", "server", "boom",
                         timeout=5.0),
            _watched_rpc(engine, network, "doomed", "server", "echo",
                         timeout=5.0),
            _watched_rpc(engine, network, "client", "server", "echo",
                         timeout=5.0),
        ]
        timed_out, errored, orphaned, ok_call = [call for call, _ in watched]
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
        for call, heard in watched:
            _assert_completed_once(call, heard)


# -- on_complete vs on_done: one settling step, two ways to hear about it ------


def _sync(network, engine):
    _echo_server(network)


def _async_reply(network, engine):
    def handler(payload):
        reply = AsyncReply()
        engine.call_after(0.02, reply.complete, {"echo": payload})
        return reply
    network.register("server", "FRC").on("echo", handler)


def _forward_chain(network, engine):
    """§4.3: the old owner relays to the new one and relays the answer."""
    _echo_server(network, address="new-owner", region="PRN")

    def old_owner(payload):
        reply = AsyncReply()
        network.rpc("server", "new-owner", "echo", payload,
                    on_complete=reply.relay)
        return reply
    network.register("server", "FRC").on("echo", old_owner)


def _destination_crash_mid_flight(network, engine):
    _echo_server(network)
    engine.call_at(0.0005, lambda: network.set_endpoint_up("server", False))


def _partition_at_delivery(network, engine):
    _echo_server(network, region="PRN")
    engine.call_at(0.0005, lambda: network.partition("FRC", "PRN"))


def _caller_down_at_response(network, engine):
    _echo_server(network)
    engine.call_at(0.0015, lambda: network.set_endpoint_up("client", False))


def _reply_after_deadline(network, engine):
    def handler(payload):
        reply = AsyncReply()
        engine.call_after(2.0, reply.complete, "late")
        return reply
    network.register("server", "FRC").on("echo", handler)


SETTLE_CASES = {
    "sync handler": (_sync, True, ""),
    "AsyncReply": (_async_reply, True, ""),
    "forward chain": (_forward_chain, True, ""),
    "destination crash mid-flight": (_destination_crash_mid_flight,
                                     False, "timeout"),
    "partition at delivery": (_partition_at_delivery, False, "timeout"),
    "caller down at response": (_caller_down_at_response,
                                False, "caller down"),
    "reply settles after its deadline": (_reply_after_deadline,
                                         False, "timeout"),
}


def _settle(case, route):
    """Run one case; hear about the completion through ``route``.  Returns
    what a caller can observe plus what the continuation saw."""
    scenario, _, _ = SETTLE_CASES[case]
    engine = Engine()
    tracer = Tracer()
    tracer.bind_clock(engine)
    network = Network(engine, rng=random.Random(9), tracer=tracer)
    network.register("client", "FRC")
    scenario(network, engine)
    heard = []

    def continuation(result):
        heard.append((engine.now, result, network.rpcs_failed))
        tracer.instant("test", "continued", engine.now)

    if route == "on_complete":
        call = network.rpc("client", "server", "echo", "hi", timeout=1.0,
                           on_complete=continuation)
    else:
        call = network.rpc("client", "server", "echo", "hi", timeout=1.0)

        def waiter():
            continuation((yield call))

        engine.process(waiter())
    engine.run()
    return call, heard, network, tracer


@pytest.mark.parametrize("case", SETTLE_CASES)
class TestCompletionRoutes:
    def test_both_routes_hear_the_same_completion(self, case):
        _, ok, error = SETTLE_CASES[case]
        direct_call, direct, direct_net, _ = _settle(case, "on_complete")
        waited_call, waited, waited_net, _ = _settle(case, "done")
        assert len(direct) == len(waited) == 1  # exactly once, each way
        (at, result, failed_seen), = direct
        assert (result.ok, result.error) == (ok, error)
        assert result is direct_call.result
        # Same result, same instant, same failure count visible to the
        # continuation, and the same RNG position afterwards.
        assert waited == [(at, result, failed_seen)]
        assert failed_seen == int(not ok)
        assert direct_net.rpcs_failed == waited_net.rpcs_failed
        assert direct_net.rng.getstate() == waited_net.rng.getstate()

    @pytest.mark.parametrize("route", ["on_complete", "done"])
    def test_span_ends_before_the_continuation_journals(self, case, route):
        call, heard, _, tracer = _settle(case, route)
        records = list(tracer.journal)
        first_span = min(r.span for r in records if r.track == "net")
        end = [i for i, r in enumerate(records) if r.track == "net"
               and r.kind == "E" and r.span == first_span]
        continued = [i for i, r in enumerate(records)
                     if r.track == "test"]
        assert len(end) == len(continued) == 1
        assert end[0] < continued[0]

    def test_late_on_done_hears_the_completion(self, case):
        call, heard, _, _ = _settle(case, "on_complete")
        assert call._waiters is None  # on_complete alone builds no list
        late = []
        call.on_done(late.append)
        assert late == []  # an event of its own, like any other wake-up
        call.net.engine.run()
        assert late == [call.result]
        assert len(heard) == 1


def test_on_complete_runs_inside_the_settling_event():
    """What the direct route saves: the continuation is not an event."""
    def events(route):
        engine = Engine()
        network = Network(engine, rng=random.Random(9))
        _echo_server(network)
        network.register("client", "FRC")
        if route == "on_complete":
            network.rpc("client", "server", "echo", on_complete=lambda r: None)
        else:
            network.rpc("client", "server", "echo").on_done(lambda r: None)
        engine.run()
        return engine.processed_events

    assert events("on_complete") == 2  # request delivery, response delivery
    assert events("done") == 3         # ... and the waiter's wake-up
