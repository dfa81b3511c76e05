"""Simulated wide-area network: latency matrix, RPC endpoints, partitions.

The paper's experiments span three real regions (FRC — Forest City NC,
PRN — Prineville OR, ODN — Odense DK).  We model the WAN as a symmetric
region-to-region one-way latency matrix plus a small intra-region latency,
with optional jitter, message loss, downed endpoints and region partitions.

RPCs complete asynchronously: :meth:`Network.rpc` returns an
:class:`RpcCall` that settles with an :class:`RpcResult`.  A state-machine
caller passes ``on_complete`` and continues inside the event that settles
the call; a generator process yields the call itself
(``result = yield net.rpc(...)``) and is resumed, in an event of its own,
once it has settled — at once if it already had.

The delivery machinery is allocation-lean: each RPC is one slotted
:class:`RpcCall` whose bound methods serve as the scheduled callbacks, so
the happy path — synchronous handler, no loss, no partition, both
endpoints up — is exactly two scheduled events (request delivery, response
delivery) with no intermediate closures.  An ``AsyncReply`` handler adds
no event of the network's own: its caller-side timeout is a guarded event
(see :meth:`Engine.call_at`) that reaches the heap only if the call is
still unsettled shortly before the deadline.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.tracer import NO_TRACER
from .engine import Engine

# One-way latencies in seconds, loosely calibrated to public RTT data for
# the paper's three experiment regions (§8.3).  Symmetric.
DEFAULT_REGION_LATENCY: Dict[Tuple[str, str], float] = {
    ("FRC", "PRN"): 0.035,
    ("FRC", "ODN"): 0.048,
    ("PRN", "ODN"): 0.075,
}

DEFAULT_INTRA_REGION_LATENCY = 0.001

#: Caller-side timeout of an RPC sent without an explicit ``timeout``.
DEFAULT_RPC_TIMEOUT = 1.0

#: p99 of U(0,1)+U(0,1) (triangular): 2 - sqrt(2 * 0.01).
_P99_TWO_UNIFORMS = 2.0 - math.sqrt(0.02)


class NetworkError(RuntimeError):
    """Raised for misconfigured network operations."""


@dataclass(slots=True)
class RpcResult:
    """Outcome of an RPC: either ``value`` or an ``error`` string."""

    ok: bool
    value: Any = None
    error: str = ""
    latency: float = 0.0


class AsyncReply:
    """Returned by a handler that cannot answer synchronously.

    The server completes it later (e.g. after forwarding the request to
    another server); the network sends the response when it completes.
    """

    __slots__ = ("_ok", "_value", "_error", "_settled", "_callbacks")

    def __init__(self) -> None:
        self._ok = False
        self._value: Any = None
        self._error = ""
        self._settled = False
        self._callbacks: list[Callable[["AsyncReply"], None]] = []

    def complete(self, value: Any = None) -> None:
        self._settle(True, value, "")

    def fail(self, error: str) -> None:
        self._settle(False, None, error)

    def relay(self, result: RpcResult) -> None:
        """Settle with the outcome of another RPC — usable directly as
        that RPC's ``on_complete`` (§4.3 request forwarding)."""
        self._settle(result.ok, result.value, result.error)

    def _settle(self, ok: bool, value: Any, error: str) -> None:
        if self._settled:
            raise NetworkError("AsyncReply settled twice")
        self._settled = True
        self._ok = ok
        self._value = value
        self._error = error
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def _on_settle(self, callback: Callable[["AsyncReply"], None]) -> None:
        if self._settled:
            callback(self)
        else:
            self._callbacks.append(callback)


class Endpoint:
    """A network-addressable party.

    Handlers are registered per method name and receive the payload; their
    return value becomes the RPC response.  Returning an
    :class:`AsyncReply` defers the response until the server completes it.
    Raising inside a handler turns into an error result at the caller
    (errors should never pass silently).
    """

    __slots__ = ("address", "region", "up", "_handlers")

    def __init__(self, address: str, region: str) -> None:
        self.address = address
        self.region = region
        self.up = True
        self._handlers: Dict[str, Callable[[Any], Any]] = {}

    def on(self, method: str, handler: Callable[[Any], Any]) -> None:
        self._handlers[method] = handler

    def handle(self, method: str, payload: Any) -> Any:
        try:
            handler = self._handlers[method]
        except KeyError:
            raise NetworkError(f"{self.address}: no handler for {method!r}") from None
        return handler(payload)


class LatencyModel:
    """Region-pair one-way latency with multiplicative jitter.

    ``(src_region, dst_region) -> base latency`` is resolved through one
    dict lookup: the matrix is pre-populated with both directions of every
    configured pair plus the ``(r, r)`` intra-region diagonal, so the hot
    path never branches on region equality or handles ``KeyError``.
    """

    def __init__(self,
                 region_latency: Optional[Dict[Tuple[str, str], float]] = None,
                 jitter_fraction: float = 0.1) -> None:
        self.jitter_fraction = jitter_fraction
        self._matrix: Dict[Tuple[str, str], float] = {}
        self._configured: set[Tuple[str, str]] = set()
        for (a, b), lat in (region_latency or DEFAULT_REGION_LATENCY).items():
            self._matrix[(a, b)] = lat
            self._matrix[(b, a)] = lat
            self._configured.add((a, b))
            self._configured.add((b, a))
        for region in {r for pair in self._configured for r in pair}:
            self._matrix.setdefault((region, region),
                                    DEFAULT_INTRA_REGION_LATENCY)

    def base_latency(self, src_region: str, dst_region: str) -> float:
        latency = self._matrix.get((src_region, dst_region))
        if latency is not None:
            return latency
        if src_region == dst_region:
            # Regions absent from the matrix still have an intra latency;
            # cache the pair so repeat lookups hit the dict.
            self._matrix[(src_region, dst_region)] = (
                DEFAULT_INTRA_REGION_LATENCY)
            return DEFAULT_INTRA_REGION_LATENCY
        raise NetworkError(
            f"no latency configured between {src_region!r} and {dst_region!r}"
        )

    def sample(self, src_region: str, dst_region: str, rng: random.Random) -> float:
        base = self._matrix.get((src_region, dst_region))
        if base is None:
            base = self.base_latency(src_region, dst_region)
        jitter = self.jitter_fraction
        if not jitter:
            return base
        # rng.uniform(0.0, j) is 0.0 + (j - 0.0) * rng.random(): the same
        # double, one Python call fewer.
        return base * (1.0 + jitter * rng.random())

    # The two moments of that distribution the fluid path prices a round
    # trip with: two legs, each ``base * (1 + U(0, jitter))``.

    def jitter_mean_factor(self) -> float:
        """E[round trip] / (2 * base)."""
        return 1.0 + self.jitter_fraction / 2.0

    def jitter_p99_factor(self) -> float:
        """p99[round trip] / (2 * base)."""
        return 1.0 + self.jitter_fraction * _P99_TWO_UNIFORMS / 2.0

    def regions(self) -> set[str]:
        return {r for pair in self._configured for r in pair}


class RpcCall:
    """One RPC: the caller's handle and the delivery state machine.

    Callers read ``result`` (``None`` until the call settles); a process
    yields the call to wait for it.  Bound methods of this object are the
    scheduled callbacks; together with the engine's ``arg``-aware
    scheduling that keeps the delivery path free of closures.
    """

    __slots__ = ("net", "src", "dst", "timeout", "start", "method",
                 "payload", "req_latency", "trace_span", "result",
                 "on_complete", "_waiters")

    def __init__(self, net: "Network", src: Optional[Endpoint],
                 dst: Optional[Endpoint], method: str, payload: Any,
                 timeout: float,
                 on_complete: Optional[Callable[[RpcResult], None]]) -> None:
        self.net = net
        self.src = src
        self.dst = dst
        self.method = method
        self.payload = payload
        self.timeout = timeout
        self.start = net.engine.now
        self.trace_span = 0  # non-zero only while tracing is enabled
        self.result: Optional[RpcResult] = None
        self.on_complete = on_complete
        self._waiters: Optional[list[Callable[[RpcResult], None]]] = None

    def on_done(self, callback: Callable[[RpcResult], None]) -> None:
        """Run ``callback(result)`` once the call has settled, as its own
        same-tick event after the one that settles it; subscribers run in
        subscription order.  On a settled call the event is scheduled at
        once, so joining calls that were broadcast earlier cannot hang.
        A process that yields the call subscribes through this."""
        if self.result is not None:
            self.net.engine._schedule_immediate(callback, self.result)
        elif self._waiters is None:
            self._waiters = [callback]
        else:
            self._waiters.append(callback)

    def unsettled(self) -> bool:
        """The guard of this call's timeout events."""
        return self.result is None

    def _settle(self, result: RpcResult) -> None:
        """First completion (value or timeout) wins, and every completion
        comes through here, so late losers (e.g. a timeout firing after
        an earlier failure) can never double-count.  The order is part of
        the determinism contract: result set, failure counted, span
        ended, ``on_complete`` run, ``on_done`` subscribers woken."""
        if self.result is not None:
            return
        self.result = result
        if not result.ok:
            self.net.rpcs_failed += 1
        if self.trace_span:
            self._trace_end(result)
        on_complete = self.on_complete
        if on_complete is not None:
            on_complete(result)
        waiters = self._waiters
        if waiters is not None:
            self._waiters = None  # a waiting process refers back to the call
            schedule = self.net.engine._schedule_immediate
            for waiter in waiters:
                schedule(waiter, result)

    def fail(self, reason: str) -> None:
        """Settle with a failure, unless the call already settled."""
        if self.result is None:
            self._settle(RpcResult(ok=False, error=reason,
                                   latency=self.net.engine.now - self.start))

    def _trace_end(self, result: RpcResult) -> None:
        """Close this RPC's span on the settling completion (the span ends
        exactly once — the invariant the TraceChecker asserts)."""
        net = self.net
        net.tracer.end(self.trace_span, net.engine.now,
                       {"ok": int(result.ok), "error": result.error,
                        "latency": result.latency},
                       track="net", name=self.method)
        hist = net.latency_hist
        if hist is not None:
            hist.observe(result.latency * 1e3)

    def deliver_request(self) -> None:
        """Request arrives at the destination (scheduled at send time)."""
        net = self.net
        dst = self.dst
        # Re-check liveness at delivery time: the destination may have
        # crashed (or a partition formed) while the request was in flight.
        if not dst.up or net._partitioned(self.src.region, dst.region):
            # Timeout minus the *sampled* request latency, not minus
            # ``now - start``: the two differ in the last float bit and
            # the pinned journal digests record this form.
            remaining = self.timeout - self.req_latency
            net.engine.call_after(max(0.0, remaining), self.fail, "timeout")
            return
        try:
            value = dst.handle(self.method, self.payload)
        except Exception as exc:  # handler errors surface at the caller
            self._send_response(False, None, f"{type(exc).__name__}: {exc}")
            return
        if isinstance(value, AsyncReply):
            value._on_settle(self._reply_settled)
            # A reply the server never settles must still time out at the
            # caller (first completion wins if it does settle).  Almost
            # every reply does settle first, hence the guard.
            remaining = self.timeout - (net.engine.now - self.start)
            net.engine.call_after(max(0.0, remaining), self.fail, "timeout",
                                  guard=self.unsettled)
        else:
            self._send_response(True, value, "")

    def _reply_settled(self, reply: AsyncReply) -> None:
        self._send_response(reply._ok, reply._value, reply._error)

    def _send_response(self, ok: bool, value: Any, error: str) -> None:
        net = self.net
        latency = net.latency.sample(self.dst.region, self.src.region, net.rng)
        if ok:
            # The completion time is known now, so the result object is
            # precomputed and the delivery callback just hands it over.
            result = RpcResult(ok=True, value=value,
                               latency=net.engine.now + latency - self.start)
            net.engine.call_after(latency, self._deliver_ok, result)
        else:
            net.engine.call_after(latency, self.fail_response, error)

    def _deliver_ok(self, result: RpcResult) -> None:
        if self.src.up:
            self._settle(result)
        else:
            self.fail("caller down")

    def fail_response(self, error: str) -> None:
        if not self.src.up:
            self.fail("caller down")
        else:
            self.fail(error)


class Network:
    """Delivers RPCs between endpoints over the latency model.

    Failure knobs:

    * ``set_endpoint_up(addr, False)`` — requests to/from it time out;
    * ``partition(region_a, region_b)`` — drop traffic between two regions;
    * ``loss_probability`` — each request is lost with this probability
      and times out at the caller; responses are never dropped.
    """

    def __init__(self, engine: Engine,
                 latency: Optional[LatencyModel] = None,
                 rng: Optional[random.Random] = None,
                 loss_probability: float = 0.0,
                 tracer=NO_TRACER) -> None:
        self.engine = engine
        self.latency = latency or LatencyModel()
        self.rng = rng or random.Random(0)
        self.loss_probability = loss_probability
        self.tracer = tracer
        #: Optional repro.obs Histogram fed with settled-RPC latency (ms);
        #: wired by the harness when observability is enabled.
        self.latency_hist = None
        self._endpoints: Dict[str, Endpoint] = {}
        self._partitions: set[frozenset[str]] = set()
        self.rpcs_sent = 0
        self.rpcs_failed = 0
        #: Bumped whenever the endpoint table changes; routers key their
        #: address→region caches on it.
        self.registration_epoch = 0

    # -- endpoint management -------------------------------------------------

    def register(self, address: str, region: str) -> Endpoint:
        if address in self._endpoints:
            raise NetworkError(f"duplicate endpoint address {address!r}")
        endpoint = Endpoint(address, region)
        self._endpoints[address] = endpoint
        self.registration_epoch += 1
        return endpoint

    def unregister(self, address: str) -> None:
        if self._endpoints.pop(address, None) is not None:
            self.registration_epoch += 1

    def endpoint(self, address: str) -> Endpoint:
        try:
            return self._endpoints[address]
        except KeyError:
            raise NetworkError(f"unknown endpoint {address!r}") from None

    def has_endpoint(self, address: str) -> bool:
        return address in self._endpoints

    def set_endpoint_up(self, address: str, up: bool) -> None:
        self.endpoint(address).up = up

    # -- partitions ----------------------------------------------------------

    def partition(self, region_a: str, region_b: str) -> None:
        self._partitions.add(frozenset((region_a, region_b)))

    def heal_partition(self, region_a: str, region_b: str) -> None:
        self._partitions.discard(frozenset((region_a, region_b)))

    def isolate_region(self, region: str) -> List[Tuple[str, str]]:
        """Partition ``region`` from every other region in the latency
        model *and* every region with a registered endpoint.

        Returns the (region, other) pairs actually added so the caller
        (the chaos engine) can heal exactly what it cut, pair by pair
        with :meth:`heal_partition` — an existing partition someone else
        installed is not returned and therefore not healed.
        """
        others = set(self.latency.regions())
        others.update(e.region for e in self._endpoints.values())
        others.discard(region)
        added: List[Tuple[str, str]] = []
        for other in sorted(others):
            pair = frozenset((region, other))
            if pair not in self._partitions:
                self._partitions.add(pair)
                added.append((region, other))
        return added

    def _partitioned(self, region_a: str, region_b: str) -> bool:
        if not self._partitions:
            return False
        return frozenset((region_a, region_b)) in self._partitions

    # -- RPC -----------------------------------------------------------------

    def rpc(self, src_address: str, dst_address: str, method: str,
            payload: Any = None, timeout: Optional[float] = None,
            on_complete: Optional[Callable[[RpcResult], None]] = None
            ) -> RpcCall:
        """Send an RPC; the returned call settles exactly once.

        ``on_complete(result)`` runs inside the event that settles the
        call, before any ``on_done`` subscriber is woken.
        """
        engine = self.engine
        if timeout is None:
            timeout = DEFAULT_RPC_TIMEOUT
        self.rpcs_sent += 1

        endpoints = self._endpoints
        src = endpoints.get(src_address)
        dst = endpoints.get(dst_address)
        call = RpcCall(self, src, dst, method, payload, timeout, on_complete)

        tracer = self.tracer
        if tracer.enabled:
            args = {"src": src_address, "dst": dst_address}
            if src is not None:
                args["src_region"] = src.region
            if dst is not None:
                args["dst_region"] = dst.region
            call.trace_span = tracer.begin("net", method, engine.now, args)

        if src is None:
            engine.call_after(0.0, call.fail, f"unknown source {src_address!r}")
            return call
        if (dst is None or not src.up or not dst.up
                or self._partitioned(src.region, dst.region)
                or (self.loss_probability
                    and self.rng.random() < self.loss_probability)):
            engine.call_after(timeout, call.fail, "timeout")
            return call

        request_latency = self.latency.sample(src.region, dst.region, self.rng)
        call.req_latency = request_latency
        engine.call_after(request_latency, call.deliver_request)
        return call
