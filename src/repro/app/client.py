"""Application clients: :class:`ApplicationClient` and workload drivers.

A client owns a network endpoint, a :class:`~repro.discovery.ServiceRouter`
fed by service discovery, and helpers to run open-loop request streams
whose outcomes land in a :class:`~repro.metrics.RateWindow` (success rate
per bucket — the Fig 17 y-axis) and a latency series (the Fig 19 y-axis).

The workload driver is the hottest loop in the request-heavy figures
(17/18/19), so it is a slotted state machine (:class:`_WorkloadOp`)
scheduled through zero-closure ``call_after`` callbacks: one arrival tick
fires one :class:`~repro.discovery.router._RequestOp` and schedules the
next Poisson arrival, with no generator frames or per-request processes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..discovery.router import RequestOutcome, ServiceRouter, _RequestOp
from ..discovery.service_discovery import ServiceDiscovery
from ..metrics.timeseries import RateWindow, TimeSeries
from ..sim.engine import Engine
from ..sim.network import Network

#: Floor applied to every rate-curve sample (requests/second).
_MIN_RATE = 1e-9

#: Ceiling applied to every rate-curve sample.  An infinite rate would
#: give zero inter-arrival delay — the open-loop driver then schedules
#: same-instant events forever and the clock never advances.
_MAX_RATE = 1e12


def clamped_rate(value: float) -> float:
    """Clamp a rate-curve sample to a finite positive rate.

    The per-request driver feeds the result to an exponential sampler
    (zero would divide-by-zero, a negative rate would produce a negative
    delay the engine rejects) and the fluid epoch integrator divides by
    it, so every pathological input maps to a safe finite value:

    * negative, zero, ``-inf`` -> ``_MIN_RATE`` ("next arrival never");
    * ``+inf`` or absurdly large -> ``_MAX_RATE`` (a finite flood —
      an infinite rate would stall the clock at one instant);
    * ``NaN`` -> ``_MIN_RATE`` (a curve with no defined value sends no
      traffic rather than corrupting downstream arithmetic).

    Ordinary rates in ``[_MIN_RATE, _MAX_RATE]`` pass through unchanged,
    so seeded event-mode traces are unaffected by the clamping.
    """
    if value != value:  # NaN: no comparison below would catch it
        return _MIN_RATE
    if value > _MAX_RATE:
        return _MAX_RATE
    if value < _MIN_RATE:
        return _MIN_RATE
    return value


@dataclass
class WorkloadRecorder:
    """Collects request outcomes for one workload run."""

    success: RateWindow
    latency: TimeSeries = field(default_factory=lambda: TimeSeries(name="latency"))
    sent: int = 0
    succeeded: int = 0
    failed: int = 0

    @classmethod
    def with_bucket(cls, bucket_width: float) -> "WorkloadRecorder":
        return cls(success=RateWindow(bucket_width))

    def record(self, now: float, outcome: RequestOutcome) -> None:
        self.success.record(now, outcome.ok)
        if outcome.ok:
            self.succeeded += 1
            self.latency.record(now, outcome.latency)
        else:
            self.failed += 1

    def record_bulk(self, now: float, ok: float, failed: float,
                    mean_latency: Optional[float] = None) -> None:
        """Fold an analytically integrated batch of outcomes in at once.

        The fluid traffic engine integrates whole epochs of arrivals and
        lands them here, so figure code reads the same recorder fields
        and RateWindow buckets in either traffic mode.  Counts may be
        fractional (they are expectations, not samples).
        """
        if ok:
            self.success.record(now, True, ok)
            self.succeeded += ok
            if mean_latency is not None:
                self.latency.record(now, mean_latency)
        if failed:
            self.success.record(now, False, failed)
            self.failed += failed
        self.sent += ok + failed


class _WorkloadOp:
    """Open-loop Poisson arrival loop as a slotted state machine.

    Each ``_tick`` (a zero-closure scheduled callback) starts one request
    through ``start_request(key, payload, prefer_primary=, on_done=)`` —
    the router's retry state machine for point reads, a scatter client's
    fan-out for scatter-gather — and schedules the next arrival from the
    (clamped) rate curve.  Pinned journal digests depend on the RNG draw
    order: key sample, the request's own latency samples inside
    ``network.rpc``, then the inter-arrival sample.
    """

    __slots__ = ("engine", "start_request", "recorder", "rng", "rate",
                 "key_fn", "payload_fn", "prefer_primary",
                 "end_time", "expovariate", "finished")

    def __init__(self, engine: Engine, start_request: Callable[..., Any],
                 duration: float, rate: Callable[[float], float],
                 key_fn: Callable[[random.Random], int],
                 recorder: WorkloadRecorder, rng: random.Random,
                 payload_fn: Optional[Callable[[int], Any]],
                 prefer_primary: bool) -> None:
        self.engine = engine
        self.start_request = start_request
        self.recorder = recorder
        self.rng = rng
        self.rate = rate
        self.key_fn = key_fn
        self.payload_fn = payload_fn
        self.prefer_primary = prefer_primary
        self.end_time = engine.now + duration
        self.expovariate = rng.expovariate  # cached inter-arrival sampler
        self.finished = False
        if engine.now < self.end_time:
            self._schedule_next()
        else:
            self.finished = True

    def _schedule_next(self) -> None:
        engine = self.engine
        self.engine.call_after(
            self.expovariate(clamped_rate(self.rate(engine.now))),
            self._tick)

    def _tick(self) -> None:
        engine = self.engine
        if engine.now >= self.end_time:
            self.finished = True
            return
        recorder = self.recorder
        recorder.sent += 1
        key = self.key_fn(self.rng)
        payload_fn = self.payload_fn
        body = payload_fn(key) if payload_fn is not None else None
        self.start_request(key, body, prefer_primary=self.prefer_primary,
                           on_done=self._record)
        self._schedule_next()

    def _record(self, outcome: RequestOutcome) -> None:
        self.recorder.record(self.engine.now, outcome)


class ApplicationClient:
    """One client instance in one region."""

    def __init__(self, engine: Engine, network: Network,
                 discovery: ServiceDiscovery, app_name: str,
                 address: str, region: str,
                 attempts: int = 3, rpc_timeout: float = 1.0,
                 retry_backoff: float = 0.5) -> None:
        self.engine = engine
        self.network = network
        self.app_name = app_name
        self.address = address
        self.region = region
        network.register(address, region)
        self.router = ServiceRouter(engine, network, address,
                                    attempts=attempts, rpc_timeout=rpc_timeout,
                                    retry_backoff=retry_backoff)
        # Delta-aware: steady-state deliveries carry a ShardMapDelta and
        # the router evicts only changed shards' cached routes.
        self._subscription = discovery.subscribe(app_name,
                                                 self.router.on_map_update,
                                                 deltas=True)

    def close(self) -> None:
        self._subscription.cancel()
        if self.network.has_endpoint(self.address):
            self.network.unregister(self.address)

    # -- single requests --------------------------------------------------------

    def request(self, key: int, payload: Any = None,
                prefer_primary: bool = True) -> _RequestOp:
        """Fire one request; the returned op's ``outcome`` is the
        RequestOutcome (``None`` until it settles)."""
        return self.router.start_request(key, payload,
                                         prefer_primary=prefer_primary)

    # -- workloads ---------------------------------------------------------------

    def run_workload(self, duration: float, rate: Callable[[float], float],
                     key_fn: Callable[[random.Random], int],
                     recorder: WorkloadRecorder,
                     rng: random.Random,
                     payload_fn: Optional[Callable[[int], Any]] = None,
                     prefer_primary: bool = True) -> _WorkloadOp:
        """Open-loop Poisson request stream for ``duration`` seconds.

        ``rate(t)`` gives the instantaneous requests/second (pass a
        constant via ``lambda t: r``; diurnal curves for Fig 18/23 come
        from ``repro.workloads.load``).  Arrivals and keys are drawn from
        ``rng``, which the caller derives from its seed.  ``payload_fn(key)``
        builds a per-request payload (without it the payload is ``None``).
        Returns the running :class:`_WorkloadOp` (``finished`` flips once
        the stream passes ``duration``).
        """
        return _WorkloadOp(self.engine, self.router.start_request, duration,
                           rate, key_fn, recorder, rng, payload_fn,
                           prefer_primary)
