"""Fluid traffic substrate: coarse epochs + M/G/k flow approximations.

Per-request discrete events cap the simulator at ~10^5 events/s — a few
thousand simulated users.  The fluid engine takes the MONARC approach
(Legrand/Dobre: flow-level simulation interleaved with event-level):
steady-state traffic is advanced *analytically* in coarse epochs, and
discrete events are spent only on transitions that change flow state
(failures, migrations, map-version changes, overload onset/recovery).

This module is the mode-agnostic substrate:

* :class:`EpochDriver` — schedules coarse epoch ticks on the ordinary
  :class:`~repro.sim.engine.Engine` and fans each ``[t0, t1]`` interval
  out to registered flow processes.  Epochs interleave with regular
  discrete events (the control plane keeps running per-event), so a
  migration that lands mid-epoch is visible at the next tick boundary.
* M/G/k queueing math — :func:`mgk_utilization` and :func:`mgk_wait`
  (the Allen–Cunneen/Sakasegawa approximation) turn per-server arrival
  rates into utilization and expected queueing delay without simulating
  a single request.

The jitter moments the fluid path prices a round trip with live beside
the distribution they describe, on
:class:`~repro.sim.network.LatencyModel`.  The flow processes themselves (per-(app, shard, region) flows mirroring
client/server semantics) live in :mod:`repro.app.fluid`.

Determinism: the driver consumes no RNG and stamps nothing but simulated
time; given the same seed and scenario spec, the sequence of epoch
boundaries — and therefore every fluid journal record — is bit-identical
(see DESIGN.md, "Hybrid traffic model").
"""

from __future__ import annotations

import math
from typing import List, Optional, Protocol

from ..obs.tracer import NO_TRACER, Tracer
from .engine import Engine, EventHandle, SimulationError

__all__ = [
    "EpochDriver",
    "FluidProcess",
    "mgk_utilization",
    "mgk_wait",
]

def mgk_utilization(arrival_rate: float, service_time: float,
                    servers: int) -> float:
    """Offered utilization rho = lambda * S / k (may exceed 1.0)."""
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers!r}")
    if service_time < 0 or arrival_rate < 0:
        raise ValueError("arrival_rate and service_time must be >= 0")
    if service_time == 0.0 or arrival_rate == 0.0:
        return 0.0
    return arrival_rate * service_time / servers


def mgk_wait(arrival_rate: float, service_time: float, servers: int,
             cv_arrival2: float = 1.0, cv_service2: float = 1.0) -> float:
    """Expected M/G/k queueing delay (excluding service).

    Sakasegawa's closed form with the Allen–Cunneen variability factor::

        Wq  ~=  (Ca^2 + Cs^2) / 2  *  S / k  *  rho^(sqrt(2(k+1)) - 1)
                                               -----------------------
                                                      1 - rho

    Exact for M/M/1, asymptotically exact as rho -> 1, and within a few
    percent of Erlang-C across the load range — plenty for a fluid
    approximation whose event-mode counterpart models no queueing at all.
    Saturated flows (rho >= 1) return ``inf``; callers shed the excess
    instead of growing an unbounded queue.
    """
    rho = mgk_utilization(arrival_rate, service_time, servers)
    if rho == 0.0:
        return 0.0
    if rho >= 1.0:
        return math.inf
    variability = (cv_arrival2 + cv_service2) / 2.0
    exponent = math.sqrt(2.0 * (servers + 1)) - 1.0
    return (variability * (service_time / servers)
            * rho ** exponent / (1.0 - rho))


class FluidProcess(Protocol):
    """Anything the :class:`EpochDriver` can advance over an interval."""

    def advance(self, t0: float, t1: float) -> None:
        """Integrate flow state over simulated interval ``[t0, t1]``."""


class EpochDriver:
    """Advances registered fluid processes in coarse epochs.

    The driver schedules ordinary engine callbacks, so fluid epochs
    interleave deterministically with the discrete control plane: a tick
    at time ``t`` sees every migration, failover and map publish that
    executed at or before ``t``.  The final tick is aligned exactly to
    ``until`` so the integrated interval tiles the workload window with
    no gap or overlap.
    """

    def __init__(self, engine: Engine, epoch: float = 5.0,
                 tracer: Tracer = NO_TRACER) -> None:
        if epoch <= 0:
            raise SimulationError(f"epoch must be positive, got {epoch!r}")
        self.engine = engine
        self.epoch = epoch
        self.tracer = tracer
        self.processes: List[FluidProcess] = []
        self.epochs_run = 0
        self.finished = False
        self._last = engine.now
        self._until: Optional[float] = None
        self._handle: Optional[EventHandle] = None
        self._started = False

    @property
    def started(self) -> bool:
        """True once :meth:`start` has been called."""
        return self._started

    def add(self, process: FluidProcess) -> None:
        self.processes.append(process)

    def start(self, until: float) -> None:
        """Begin ticking now, integrating up to simulated time ``until``."""
        if self._started:
            raise SimulationError("EpochDriver already started")
        if until <= self.engine.now:
            raise SimulationError(
                f"until={until!r} is not ahead of now={self.engine.now!r}")
        self._started = True
        self._until = until
        self._last = self.engine.now
        self._schedule()

    def stop(self) -> None:
        """Cancel any pending tick; already-integrated epochs stand."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self.finished = True

    def _schedule(self) -> None:
        remaining = self._until - self.engine.now
        self._handle = self.engine.call_after(min(self.epoch, remaining),
                                              self._tick)

    def _tick(self) -> None:
        self._handle = None
        if self.finished:
            return
        t0, t1 = self._last, self.engine.now
        for process in self.processes:
            process.advance(t0, t1)
        self.epochs_run += 1
        self._last = t1
        if t1 >= self._until - 1e-12:
            self.finished = True
            return
        self._schedule()
