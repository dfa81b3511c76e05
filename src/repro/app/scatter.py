"""Scatter-gather application: fan-out reads merged at the slowest leg.

The workload where shard placement hurts most: one logical request fans
out to ``fanout`` shards in parallel and the reply is assembled only
when the *last* leg lands, so per-request latency is the max over K
legs.  A single overloaded or mid-migration shard drags every scatter
request that touches it — tail amplification — which makes
continuous load balancing (Fig 23) visible in client latency rather than
only in per-server load counters.

Two pieces live here:

* :class:`ScatterGatherClient` — drives scatter requests through the
  ordinary :class:`~repro.discovery.router.ServiceRouter` retry machinery
  (each leg is a normal keyed request) and journals ``scatter/fanout``,
  ``scatter/leg`` and ``scatter/merge`` instants so the TraceChecker can
  audit that every merge waited for all of its legs.
* :class:`QueuedServiceHandler` — a deterministic single-server FIFO
  queue for the application side.  The simulator's RPC latency model is
  load-independent, so without this, placement quality would never show
  up in latency; with it, a server's response time grows with its queue
  depth and hot placement becomes measurable as P99.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional

from ..discovery.router import RequestOutcome
from ..sim.network import AsyncReply
from .client import ApplicationClient, WorkloadRecorder, _WorkloadOp


class QueuedServiceHandler:
    """Deterministic per-server FIFO queue with fixed service time.

    Each request occupies the server for ``service_time`` simulated
    seconds; a request arriving while the server is busy waits behind the
    queue (Lindley recursion on ``busy_until``).  The reply is an
    :class:`~repro.sim.network.AsyncReply` completed at departure time,
    so response latency = queueing delay + service time.  No RNG is
    involved — the handler adds no draws to seeded traces.
    """

    __slots__ = ("engine", "service_time", "busy_until", "served",
                 "address")

    def __init__(self, engine, service_time: float,
                 address: str = "") -> None:
        if service_time <= 0:
            raise ValueError("service_time must be > 0")
        self.engine = engine
        self.service_time = service_time
        self.busy_until = 0.0
        self.served = 0
        self.address = address

    def __call__(self, shard_id: str, request: Any) -> AsyncReply:
        now = self.engine.now
        start = self.busy_until if self.busy_until > now else now
        done = start + self.service_time
        self.busy_until = done
        self.served += 1
        reply = AsyncReply()
        self.engine.call_at(done, reply.complete,
                            {"shard": shard_id, "served_by": self.address})
        return reply


def queued_handler_factory(cluster, service_time: float,
                           registry: Optional[Dict[str, "QueuedServiceHandler"]]
                           = None) -> Callable:
    """A ``deploy_app`` handler factory installing one
    :class:`QueuedServiceHandler` per container.  Pass a ``registry``
    dict to keep handles for queue-depth sampling."""

    def factory(container) -> QueuedServiceHandler:
        handler = QueuedServiceHandler(cluster.engine, service_time,
                                       address=container.address)
        if registry is not None:
            registry[container.address] = handler
        return handler

    return factory


class _ScatterOp:
    """One scatter-gather request: K router legs, merge at the last."""

    __slots__ = ("engine", "tracer", "scatter_id", "fanout", "start",
                 "done_legs", "failed_legs", "attempts", "on_done")

    def __init__(self, client: "ScatterGatherClient", key: int,
                 prefer_primary: bool,
                 on_done: Optional[Callable[[RequestOutcome], None]]) -> None:
        router = client.client.router
        self.engine = client.engine
        self.tracer = router.network.tracer
        self.scatter_id = f"{client.client.address}/{client._next_id}"
        client._next_id += 1
        self.fanout = client.fanout
        self.start = self.engine.now
        self.done_legs = 0
        self.failed_legs = 0
        self.attempts = 0
        self.on_done = on_done
        if self.tracer.enabled:
            self.tracer.instant("scatter", "fanout", self.start, {
                "scatter": self.scatter_id, "legs": self.fanout, "key": key})
        key_space = client.key_space
        stride = client.leg_stride
        leg_done = self._leg_done
        for leg in range(self.fanout):
            leg_key = (key + leg * stride) % key_space
            router.start_request(leg_key, {"scatter": self.scatter_id},
                                 prefer_primary, leg_done)

    def _leg_done(self, outcome: RequestOutcome) -> None:
        self.done_legs += 1
        self.attempts += outcome.attempts
        if not outcome.ok:
            self.failed_legs += 1
        if self.tracer.enabled:
            self.tracer.instant("scatter", "leg", self.engine.now, {
                "scatter": self.scatter_id, "ok": outcome.ok,
                "shard": outcome.shard_id, "latency": outcome.latency})
        if self.done_legs == self.fanout:
            self._merge()

    def _merge(self) -> None:
        now = self.engine.now
        ok = self.failed_legs == 0
        latency = now - self.start  # merge at the slowest leg: max-of-K
        if self.tracer.enabled:
            self.tracer.instant("scatter", "merge", now, {
                "scatter": self.scatter_id, "ok": ok, "legs": self.done_legs,
                "failed_legs": self.failed_legs, "latency": latency})
        if self.on_done is not None:
            self.on_done(RequestOutcome(
                ok, None, "" if ok else f"{self.failed_legs} legs failed",
                latency, self.attempts))


class ScatterGatherClient:
    """Fan-out reads across ``fanout`` shards through one app client.

    Leg ``i`` of a scatter anchored at ``key`` reads
    ``(key + i * leg_stride) % key_space`` with ``leg_stride =
    key_space // fanout`` — on a uniformly sharded key space the legs
    land on ``fanout`` distinct shards, which is the point: the reply is
    only as fast as the slowest shard touched.
    """

    def __init__(self, client: ApplicationClient, key_space: int,
                 fanout: int = 4) -> None:
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        if key_space < 1:
            raise ValueError("key_space must be >= 1")
        self.client = client
        self.engine = client.engine
        self.key_space = key_space
        self.fanout = fanout
        self.leg_stride = key_space // fanout
        self._next_id = 0

    def start_request(self, key: int, payload: Any, prefer_primary: bool,
                      on_done: Optional[Callable[[RequestOutcome], None]]
                      ) -> _ScatterOp:
        """Fire one scatter-gather request anchored at ``key``.

        The arguments the open-loop driver passes
        ``ServiceRouter.start_request``, so it starts either kind of
        request.  ``payload`` is not sent: every leg carries its scatter
        id instead.
        """
        return _ScatterOp(self, key, prefer_primary, on_done)

    def run_workload(self, duration: float, rate: Callable[[float], float],
                     key_fn: Callable[[random.Random], int],
                     recorder: WorkloadRecorder,
                     rng: random.Random) -> _WorkloadOp:
        """Open-loop Poisson scatter stream for ``duration`` seconds.

        Each arrival draws one anchor key from ``key_fn`` and fans out
        ``fanout`` legs; the recorder sees one logical outcome per
        scatter (success = all legs succeeded, latency = slowest leg).
        Arrivals and keys are drawn from ``rng``.
        """
        return _WorkloadOp(self.engine, self.start_request, duration, rate,
                           key_fn, recorder, rng, payload_fn=None,
                           prefer_primary=True)
