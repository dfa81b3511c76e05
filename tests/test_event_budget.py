"""Engine events per request, pinned exactly — a budget with no host clock.

``bench/`` shows what the message path costs in host time; this file pins
the thing that cost is made of.  Each scenario is a few seeded requests on
a hand-built stack (engine, network, discovery, one client, endpoints as
servers — no control plane, so nothing else schedules anything), run with
the engine's own dispatch sampling set to every event, which journals
the qualified name of every callback the engine executes.  The assertion
is the whole multiset of those names, so a change that puts a per-request
event back (a timeout that reaches the heap, a completion woken through a
signal, a closure hop) fails a count here, on every interpreter of the CI
matrix, rather than a timing somewhere else.

The second half pins the Python calls an event is made of: every
function under ``src/repro`` entered per request, on the same three
stacks.  A frame that models nothing (a trampoline around a handler, a
relay between a reply and its response, a probe for a partition that
does not exist) fails a count there.
"""

import random
import sys
from collections import Counter
from pathlib import Path

import repro

from repro.app.client import ApplicationClient, WorkloadRecorder
from repro.app.scatter import QueuedServiceHandler, ScatterGatherClient
from repro.core.shard_map import ShardMap, ShardMapEntry
from repro.discovery.service_discovery import ServiceDiscovery
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine
from repro.sim.network import Network

SHARDS = 8
KEYS_PER_SHARD = 16
KEY_SPACE = SHARDS * KEYS_PER_SHARD


class Stack:
    """Four endpoints serving eight shards, one client, map delivered."""

    def __init__(self, queued: bool, seed: int = 5) -> None:
        self.engine = engine = Engine()
        self.network = network = Network(engine, rng=random.Random(seed))
        for index in range(4):
            endpoint = network.register(f"srv/{index}", "FRC")
            if queued:
                serve = QueuedServiceHandler(engine, 0.002,
                                             address=f"srv/{index}")
                endpoint.on("app.request",
                            lambda m, serve=serve: serve(m["shard_id"],
                                                         m["payload"]))
            else:
                endpoint.on("app.request", lambda m: m["key"])
        discovery = ServiceDiscovery(engine, base_delay=0.0, jitter=0.0)
        discovery.publish(ShardMap.from_entries("app", 1, tuple(
            ShardMapEntry(f"s{s}", s * KEYS_PER_SHARD,
                          (s + 1) * KEYS_PER_SHARD, f"srv/{s % 4}", ())
            for s in range(SHARDS))))
        self.client = ApplicationClient(engine, network, discovery, "app",
                                        "client/app/FRC/0", "FRC",
                                        rpc_timeout=1.0)
        engine.run()  # the map is delivered; nothing is left scheduled
        assert engine.pending_events == 0
        self.events_at_setup = engine.processed_events
        self.tracer = Tracer()
        engine.set_tracer(self.tracer)
        engine._trace_sample = 1   # every event, not every ENGINE_SAMPLE-th

    def executed(self) -> Counter:
        """Qualified name -> times the engine executed it since set-up."""
        return Counter(r.name for r in self.tracer.journal
                       if r.track == "engine" and r.name != "pending_events")


def _burst(run_workload, seed: int = 11) -> WorkloadRecorder:
    """Open-loop arrivals at 200/s for 0.2 s: about forty requests whose
    deadlines (arrival + 1 s) all land in one guard bucket, [1.0, 1.25)."""
    recorder = WorkloadRecorder.with_bucket(1.0)
    run_workload(duration=0.2, rate=lambda t: 200.0,
                 key_fn=lambda rng: rng.randrange(KEY_SPACE),
                 recorder=recorder, rng=random.Random(seed))
    return recorder


def test_sync_point_read_is_three_events():
    stack = Stack(queued=False)
    recorder = _burst(stack.client.run_workload)
    stack.engine.run()
    n = recorder.sent
    assert n > 10 and recorder.succeeded == n
    assert stack.executed() == {
        # one arrival tick per request, plus the tick that finds the
        # stream over and sends nothing
        "_WorkloadOp._tick": n + 1,
        # the request reaches the server, which answers in the handler
        "RpcCall.deliver_request": n,
        # the response reaches the client: the router's completion, the
        # recorder and the outcome all run inside this event
        "RpcCall._deliver_ok": n,
    }
    assert stack.engine.processed_events - stack.events_at_setup == 3 * n + 1


def test_queued_async_reply_read_adds_only_the_service_completion():
    stack = Stack(queued=True)
    recorder = _burst(stack.client.run_workload)
    stack.engine.run()
    n = recorder.sent
    assert n > 10 and recorder.succeeded == n
    assert stack.executed() == {
        "_WorkloadOp._tick": n + 1,
        "RpcCall.deliver_request": n,
        # the FIFO server finishes the request and settles the reply
        "AsyncReply.complete": n,
        "RpcCall._deliver_ok": n,
        # every caller-side timeout was parked and dropped here: one
        # event per bucket of deadlines, not one per request, and no
        # "RpcCall.fail" at all
        "Engine._flush_guarded": 1,
    }


def test_scatter_is_one_tick_plus_k_reads():
    fanout = 4
    stack = Stack(queued=True)
    scatter = ScatterGatherClient(stack.client, KEY_SPACE, fanout=fanout)
    recorder = _burst(scatter.run_workload)
    stack.engine.run()
    n = recorder.sent
    assert n > 10 and recorder.succeeded == n
    assert stack.executed() == {
        # the same arrival loop as a point-read stream; each tick starts
        # a scatter instead of a read
        "_WorkloadOp._tick": n + 1,
        # K legs, each a queued read minus its own arrival tick; the
        # merge runs inside the slowest leg's response delivery
        "RpcCall.deliver_request": fanout * n,
        "AsyncReply.complete": fanout * n,
        "RpcCall._deliver_ok": fanout * n,
        "Engine._flush_guarded": 1,
    }


def test_healthy_async_reply_rpc_leaves_no_heap_entry_behind():
    stack = Stack(queued=True)
    engine = stack.engine
    calls = [stack.network.rpc(stack.client.address, f"srv/{i % 4}",
                               "app.request",
                               {"shard_id": "s0", "payload": None})
             for i in range(10)]
    engine.run(until=0.5)
    assert all(call.result is not None and call.result.ok for call in calls)
    # Ten settled calls, ten timeouts still due at t=1: all parked in one
    # bucket, whose flush is the only thing on the heap.
    assert [event[2].__name__ for event in engine._heap] == \
        ["_flush_guarded"]
    assert engine.pending_events == 11
    before = engine.processed_events
    engine.run()
    assert engine.processed_events == before + 1
    assert engine.pending_events == 0
    assert engine.now == 1.0  # where the last no-op would have run


# -- the call budget ---------------------------------------------------------

SRC = str(Path(repro.__file__).parent)

#: Calls the measured region makes once, whatever it sends: the recorder
#: (``with_bucket``, its rate window's ``__init__``, its latency series'
#: default factory and the series' two arrays), ``run_workload`` and the
#: driver's ``__init__``, ``Engine.run``, the router's route-cache reset
#: on the first route, and the rate window opening its one bucket.
ONCE = Counter({"with_bucket": 1, "<lambda>": 1, "_float_array": 2,
                "run_workload": 1, "__init__": 2, "run": 1,
                "_clear_route_caches": 1, "_flush": 1})


def _calls(stack: Stack, run_workload) -> tuple:
    """``(requests sent, co_name -> calls)`` for one ``_burst`` on
    ``stack``, run to the end.

    Counted with ``sys.setprofile``: every ``call`` event of a function
    whose code lives under ``src/repro``, keyed by ``co_name`` (not
    ``co_qualname``, which Python 3.10 lacks).  The engine's dispatch
    sampler is detached first.  A dataclass ``__init__`` is compiled from
    ``<string>`` and is not counted; nor are builtins.
    """
    stack.engine.set_tracer(None)
    calls = Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        recorder = _burst(run_workload)
        stack.engine.run()
    finally:
        sys.setprofile(None)
    return recorder.sent, calls


def _arrivals(n: int) -> Counter:
    """The driver: n ticks that send plus the one that ends the stream,
    each scheduling the next arrival; n outcomes recorded (the
    recorder, its rate window and its latency series)."""
    return Counter({"_tick": n + 1, "_schedule_next": n + 1,
                    "clamped_rate": n + 1, "call_after": n + 1,
                    "call_at": n + 1, "_record": n, "record": 3 * n})


def _reads(legs: int, new_keys: int, misses: int) -> Counter:
    """``legs`` router requests with a synchronous answer: ``new_keys``
    of them carry a key the router has not seen, which it bisects (its
    ``index_for_key`` and the map's) once; ``misses`` land on a column
    the route cache does not hold, which is picked from the map."""
    return Counter({
        "start_request": legs, "_attempt_once": legs, "route_for": legs,
        "__init__": 2 * legs,          # _RequestOp, RpcCall
        "rpc": legs, "sample": 2 * legs, "call_at": 2 * legs,
        "deliver_request": legs,       # the handler runs in this frame
        "_send_response": legs, "_deliver_ok": legs, "_settle": legs,
        "_rpc_done": legs,             # and the outcome is built in this
        "index_for_key": 2 * new_keys,
        "_pick_at": misses, "primary_at": misses})


def _queued(legs: int) -> Counter:
    """What a FIFO server's ``AsyncReply`` adds to ``legs`` reads: the
    handler, its completion event, the parked timeout and the guard that
    drops it; settling hands the reply straight to ``_send_response``.
    The timeouts share one bucket, scheduled and flushed once."""
    return Counter({"__call__": legs, "__init__": legs,
                    "call_at": 2 * legs + 1, "_on_settle": legs,
                    "complete": legs, "_settle": legs, "unsettled": legs,
                    "_flush_guarded": 1})


def test_sync_point_read_call_budget():
    stack = Stack(queued=False)
    n, calls = _calls(stack, stack.client.run_workload)
    router = stack.client.router
    misses, new_keys = router.route_cache_misses, len(router._key_columns)
    assert calls == ONCE + _arrivals(n) + _reads(n, new_keys, misses)
    assert (n, sum(calls.values())) == (40, 1053)   # 26.3 per request


def test_queued_read_call_budget():
    stack = Stack(queued=True)
    n, calls = _calls(stack, stack.client.run_workload)
    router = stack.client.router
    misses, new_keys = router.route_cache_misses, len(router._key_columns)
    assert calls == (ONCE + _arrivals(n) + _reads(n, new_keys, misses)
                     + _queued(n))
    assert (n, sum(calls.values())) == (40, 1375)   # 34.4 per request


def test_scatter_call_budget():
    fanout = 4
    stack = Stack(queued=True)
    scatter = ScatterGatherClient(stack.client, KEY_SPACE, fanout=fanout)
    n, calls = _calls(stack, scatter.run_workload)
    router = stack.client.router
    misses, new_keys = router.route_cache_misses, len(router._key_columns)
    legs = fanout * n
    # One _ScatterOp per arrival, K legs through the router, one merge;
    # untraced, no scatter instant is built.
    assert calls == (ONCE + _arrivals(n) + _reads(legs, new_keys, misses)
                     + _queued(legs)
                     + Counter({"start_request": n, "__init__": n,
                                "_leg_done": legs, "_merge": n}))
    assert (n, sum(calls.values())) == (40, 4513)   # 112.8 per request
