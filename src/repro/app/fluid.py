"""Fluid traffic: analytic per-(app, shard, region) flows.

The per-request path (:class:`~repro.app.client.ApplicationClient` +
``_WorkloadOp``) spends one engine event per arrival; at paper scale
(billions of requests/s) that is hopeless.  The fluid path represents
the same workload as *flows*: one flow per (app, shard, client-region),
carrying an arrival-rate share, a routed address, and a health state
derived from exactly the state the event path would probe per request —
the client's subscribed shard map on the routing side and the real
:class:`~repro.app.server.ApplicationServer` hosting tables (including
§4.3 forwarding chains) on the serving side.

Flows are advanced in coarse epochs by the
:class:`~repro.sim.fluid.EpochDriver`; an epoch integrates arrivals
analytically (shared rate curves from :mod:`repro.workloads.load`) and
costs O(serving addresses), not O(requests).  Discrete events are spent
only on transitions:

* **map-version changes** — the client subscribes delta-aware, so a
  :class:`~repro.core.shard_map.ShardMapDelta` reprices exactly the
  changed flows;
* **migrations / failures / restarts** — detected per epoch through
  per-address fingerprints (the server's hosting-mutation counter plus
  endpoint liveness), repricing only flows of addresses that changed;
* **overload onset/recovery** — per-address M/G/k utilization crossing
  the threshold flips the address's overload state and sheds the excess.

Latency comes from the analytic mirror of the event path: two one-way
legs of the region latency matrix with the jitter factors from
:mod:`repro.sim.fluid`, plus the M/G/k queueing delay (zero at the event
path's default of synchronous zero-service-time handlers, so the two
modes agree).

Event-mode semantics NOT mirrored (the event/fluid boundary, see
DESIGN.md "Hybrid traffic model"): per-request retry timing (failures
count once, at epoch granularity), secondary reads (flows follow the
primary), message loss and NETWORK_LOSS reachability, and application
handler side effects (a fluid epoch never invokes handlers).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..discovery.service_discovery import ServiceDiscovery
from ..metrics.timeseries import TimeSeries
from ..obs.tracer import NO_TRACER, Tracer
from ..sim.engine import Engine
from ..sim.fluid import EpochDriver, mgk_utilization, mgk_wait
from ..sim.network import Network
from ..workloads.load import mean_rate
from .client import WorkloadRecorder, clamped_rate
from .runtime import AppRuntime
from .server import Admission, admission

__all__ = ["FluidClient", "FluidServer"]

#: p99/mean multiplier for the conditional M/G/k wait (exponential tail).
_WAIT_TAIL_P99 = 4.605170185988091  # ln(100)

#: Per-address M/G/k utilization at which a server counts as overloaded.
OVERLOAD_THRESHOLD = 0.95

#: Forwarding chains longer than this count as broken (mirrors the event
#: path, where each hop is a real RPC and cycles would time out).
_MAX_FORWARD_DEPTH = 3


class FluidServer:
    """Analytic counterpart of one serving address.

    Aggregates the arrival rate of every healthy flow resolved to this
    address and derives utilization and expected queueing delay from the
    M/G/k approximation.  ``capacity`` is the number of parallel service
    slots, ``service_time`` the mean per-request service time; the
    defaults (``service_time=0``) match the event path's synchronous
    handlers, where a request costs only network time.
    """

    __slots__ = ("address", "region", "capacity", "service_time",
                 "arrival_rate", "utilization", "wait", "overloaded")

    def __init__(self, address: str, region: str, capacity: int,
                 service_time: float) -> None:
        self.address = address
        self.region = region
        self.capacity = capacity
        self.service_time = service_time
        self.arrival_rate = 0.0
        self.utilization = 0.0
        self.wait = 0.0
        self.overloaded = False

    def offer(self, arrival_rate: float) -> None:
        """Update utilization/wait for this epoch's offered load."""
        self.arrival_rate = arrival_rate
        self.utilization = mgk_utilization(arrival_rate, self.service_time,
                                           self.capacity)
        self.wait = mgk_wait(arrival_rate, self.service_time, self.capacity)

    def served_fraction(self) -> float:
        """Fraction of offered arrivals actually served (rho > 1 sheds)."""
        if self.utilization <= 1.0:
            return 1.0
        return 1.0 / self.utilization


class _Flow:
    """One (shard, client-region) flow."""

    __slots__ = ("shard_id", "share", "routed", "serving", "server_region",
                 "healthy")

    def __init__(self, shard_id: str, share: float) -> None:
        self.shard_id = shard_id
        self.share = share
        self.routed: Optional[str] = None   # address the client's map picks
        self.serving: Optional[str] = None  # address actually serving (§4.3)
        self.server_region: Optional[str] = None
        self.healthy = False


class FluidClient:
    """Fluid mirror of :class:`~repro.app.client.ApplicationClient`.

    One instance models *all* the users of one app in one region; the
    aggregate request rate is the rate curve passed to
    :meth:`run_workload`.  Outcomes land in the same
    :class:`~repro.app.client.WorkloadRecorder` the per-request driver
    fills, so figure code is traffic-mode-agnostic.
    """

    def __init__(self, engine: Engine, network: Network,
                 discovery: ServiceDiscovery, runtime: AppRuntime,
                 app_name: str, region: str,
                 capacity: int = 8, service_time: float = 0.0,
                 load_feed_interval: float = 15.0,
                 tracer: Tracer = NO_TRACER) -> None:
        self.engine = engine
        self.network = network
        self.runtime = runtime
        self.app_name = app_name
        self.region = region
        self.capacity = capacity
        self.service_time = service_time
        self.load_feed_interval = load_feed_interval
        self.tracer = tracer

        self._map = None
        self._flows: Dict[str, _Flow] = {}
        self._total_share = 0.0
        self._healthy_share = 0.0
        #: serving address -> healthy share resolved there.
        self._share_by_address: Dict[str, float] = {}
        #: address (routed or serving) -> shard ids to reprice on change.
        self._flows_by_address: Dict[str, Set[str]] = {}
        #: address -> last-seen (mutations, endpoint-alive) fingerprint.
        self._fingerprints: Dict[str, Tuple[int, bool]] = {}
        self._servers: Dict[str, FluidServer] = {}

        self.rate: Optional[Callable[[float], float]] = None
        self.recorder: Optional[WorkloadRecorder] = None
        self.driver: Optional[EpochDriver] = None
        self.latency_p99 = TimeSeries(name=f"fluid/{app_name}/{region}/p99")

        # Headline counters (mirroring the router's).
        self.map_updates = 0
        self.delta_reprices = 0
        self.full_reprices = 0
        self.epochs = 0
        self.arrivals_total = 0.0
        self.ok_total = 0.0
        self.failed_total = 0.0
        self.overload_onsets = 0
        self.overload_recoveries = 0

        self._load_accum = 0.0
        self._last_feed = engine.now
        self._subscription = discovery.subscribe(app_name, self._on_map,
                                                 deltas=True)

    def close(self) -> None:
        self._subscription.cancel()
        if self.driver is not None:
            self.driver.stop()

    # -- workload entry point ------------------------------------------------

    def run_workload(self, duration: float, rate: Callable[[float], float],
                     recorder: WorkloadRecorder,
                     epoch: float = 5.0,
                     driver: Optional[EpochDriver] = None) -> EpochDriver:
        """Drive ``rate(t)`` requests/s for ``duration`` seconds.

        Mirrors ``ApplicationClient.run_workload`` but integrates whole
        epochs instead of scheduling per-request events.  Returns the
        :class:`~repro.sim.fluid.EpochDriver` (shared drivers let several
        fluid clients tick in lockstep).
        """
        self.rate = rate
        self.recorder = recorder
        if driver is None:
            driver = EpochDriver(self.engine, epoch=epoch, tracer=self.tracer)
        driver.add(self)
        if not driver.started:
            driver.start(until=self.engine.now + duration)
        self.driver = driver
        return driver

    # -- map / flow bookkeeping ----------------------------------------------

    def _on_map(self, shard_map, delta=None) -> None:
        previous = self._map
        if previous is not None and shard_map.version <= previous.version:
            return  # fan-out can reorder deliveries; ignore stale ones
        self._map = shard_map
        self.map_updates += 1
        if (delta is not None and previous is not None
                and delta.base_version == previous.version
                and delta.key_index is previous.key_index):
            # The delta chains onto the map we hold and was cut from its
            # layout, so every shard it names already has a flow with
            # the right share: reprice exactly those, from the columns.
            flows = self._flows
            shard_ids = delta.key_index.shard_ids
            for i, primary in zip(delta.indices, delta.primaries):
                flow = flows[shard_ids[i]]
                self._retract(flow)
                self._apply_route(flow, primary)
            self.delta_reprices += len(delta.indices)
        else:
            self._rebuild(shard_map)

    def _rebuild(self, shard_map) -> None:
        """Resync against a full snapshot.

        Jittered fan-out reorders deliveries during publish bursts, so
        delta-aware subscriptions resync often; a naive rebuild would
        reprice every flow each time.  Instead walk the columnar map
        directly (no entry materialization) and reprice only flows whose
        route or key share actually differs — serving-side staleness is
        the per-epoch fingerprint revalidation's job, not the map's.
        """
        self.full_reprices += 1
        flows = self._flows
        index = shard_map.key_index
        shard_ids = index.shard_ids
        lows = index.key_lows
        highs = index.key_highs
        primary_at = shard_map.primary_at
        for i, shard_id in enumerate(shard_ids):
            primary = primary_at(i)
            flow = flows.get(shard_id)
            if flow is None:
                flow = _Flow(shard_id, float(highs[i] - lows[i]))
                flows[shard_id] = flow
                self._total_share += flow.share
                self._apply_route(flow, primary)
                continue
            share = float(highs[i] - lows[i])
            if share != flow.share:
                self._retract(flow)
                self._total_share += share - flow.share
                flow.share = share
                self._apply_route(flow, primary)
            elif flow.routed != primary:
                self._retract(flow)
                self._apply_route(flow, primary)
        if len(flows) != len(shard_ids):
            present = set(shard_ids)
            for shard_id in [s for s in flows if s not in present]:
                flow = flows.pop(shard_id)
                self._retract(flow)
                self._total_share -= flow.share

    # -- serving-side resolution (mirrors ApplicationServer semantics) -------

    def _resolve(self, address: Optional[str], shard_id: str,
                 depth: int = 0) -> Optional[str]:
        """The address that would actually serve, following §4.3 chains.

        ``None`` means the request the event path would send here fails:
        no endpoint, endpoint down, no server, or a server whose
        :func:`~repro.app.server.admission` rejects it (shard not hosted,
        or a PREPARING replica reached directly).
        """
        if address is None or depth > _MAX_FORWARD_DEPTH:
            return None
        network = self.network
        if not network.has_endpoint(address):
            return None
        if not network.endpoint(address).up:
            return None
        server = self.runtime.server_at(address)
        if server is None:
            return None
        hosted = server.hosted(shard_id)
        verdict = admission(hosted, forwarded=depth > 0)
        if verdict is Admission.SERVE:
            return address
        if verdict is Admission.FORWARD:
            return self._resolve(hosted.forward_to, shard_id, depth + 1)
        return None

    def _fingerprint(self, address: str) -> Tuple[int, bool]:
        network = self.network
        alive = network.has_endpoint(address) and network.endpoint(address).up
        server = self.runtime.server_at(address)
        return (server.mutations if server is not None else -1, alive)

    def _index_address(self, address: str, shard_id: str) -> None:
        bucket = self._flows_by_address.get(address)
        if bucket is None:
            bucket = set()
            self._flows_by_address[address] = bucket
            self._fingerprints[address] = self._fingerprint(address)
        bucket.add(shard_id)

    def _retract(self, flow: _Flow) -> None:
        """Remove a flow's contribution to every aggregate."""
        if flow.healthy:
            self._healthy_share -= flow.share
            serving = flow.serving
            remaining = self._share_by_address.get(serving, 0.0) - flow.share
            if remaining <= 1e-12:
                self._share_by_address.pop(serving, None)
            else:
                self._share_by_address[serving] = remaining
        for address in (flow.routed, flow.serving):
            if address is None:
                continue
            bucket = self._flows_by_address.get(address)
            if bucket is not None:
                bucket.discard(flow.shard_id)
                if not bucket:
                    del self._flows_by_address[address]
                    self._fingerprints.pop(address, None)
        flow.healthy = False
        flow.routed = flow.serving = flow.server_region = None

    def _apply_route(self, flow: _Flow, routed: Optional[str]) -> None:
        """Price a flow against the current serving truth."""
        serving = self._resolve(routed, flow.shard_id)
        flow.routed = routed
        flow.serving = serving
        if routed is not None:
            self._index_address(routed, flow.shard_id)
        if serving is None:
            flow.healthy = False
            flow.server_region = None
            return
        if serving != routed:
            self._index_address(serving, flow.shard_id)
        flow.healthy = True
        flow.server_region = self.network.endpoint(serving).region
        self._healthy_share += flow.share
        self._share_by_address[serving] = (
            self._share_by_address.get(serving, 0.0) + flow.share)

    def _revalidate(self) -> None:
        """Reprice flows of addresses whose serving state changed.

        O(addresses) fingerprint probes per epoch; repricing work is
        O(flows of changed addresses) — the discrete-transition budget.
        """
        fingerprints = self._fingerprints
        dirty: List[str] = []
        for address, seen in fingerprints.items():
            fresh = self._fingerprint(address)
            if fresh != seen:
                dirty.append(address)
        for address in dirty:
            shard_ids = self._flows_by_address.get(address)
            if not shard_ids:
                continue
            for shard_id in list(shard_ids):
                flow = self._flows[shard_id]
                routed = flow.routed
                self._retract(flow)
                self._apply_route(flow, routed)
        # Refresh after repricing: _apply_route may have (re)indexed the
        # same addresses with pre-reprice fingerprints.
        for address in dirty:
            if address in self._fingerprints:
                self._fingerprints[address] = self._fingerprint(address)

    # -- the epoch integrator (called by EpochDriver) ------------------------

    def advance(self, t0: float, t1: float) -> None:
        dt = t1 - t0
        if dt <= 0.0 or self.rate is None:
            return
        self._revalidate()
        rate_now = clamped_rate(mean_rate(self.rate, t0, t1))
        arrivals = rate_now * dt
        mid = (t0 + t1) / 2.0

        total = self._total_share
        if total <= 0.0 or not self._flows:
            ok = 0.0
            failed = arrivals
            healthy_fraction = 0.0
        else:
            healthy_fraction = min(1.0, self._healthy_share / total)
            ok = arrivals * healthy_fraction
            failed = arrivals - ok

        # Per-address M/G/k: utilization, queueing delay, overload shedding.
        mean_latency, p99_latency, shed = self._price_addresses(
            rate_now, total if total > 0 else 1.0, t1)
        if shed > 0.0:
            shed_arrivals = min(ok, shed * arrivals)
            ok -= shed_arrivals
            failed += shed_arrivals

        recorder = self.recorder
        if recorder is not None:
            recorder.record_bulk(mid, ok, failed,
                                 mean_latency if ok > 0.0 else None)
        if ok > 0.0 and p99_latency is not None:
            self.latency_p99.record(mid, p99_latency)

        self.epochs += 1
        self.arrivals_total += arrivals
        self.ok_total += ok
        self.failed_total += failed

        # Feed served load into the real servers' per-shard accounting so
        # the §5 load-balancing loop sees fluid traffic too.
        self._load_accum += arrivals
        if t1 - self._last_feed >= self.load_feed_interval:
            self._feed_load(t1)

        tracer = self.tracer
        if tracer.enabled:
            tracer.instant("fluid", "epoch", t1, {
                "app": self.app_name, "client": self.region,
                "t0": round(t0, 9), "t1": round(t1, 9),
                "arrivals": round(arrivals, 6), "ok": round(ok, 6),
                "failed": round(failed, 6),
                "healthy_share": round(healthy_fraction, 9),
                "flows": len(self._flows)})

    def _price_addresses(self, rate_now: float, total_share: float,
                         now: float) -> Tuple[Optional[float],
                                              Optional[float], float]:
        """(mean latency, p99 latency, shed fraction) for this epoch.

        Iterates the serving addresses (not the flows): each address gets
        its offered arrival rate, M/G/k wait, and overload state; the
        latency distribution is the share-weighted mixture across
        addresses, with the p99 read from the mixture's weighted quantile.
        """
        share_by_address = self._share_by_address
        if not share_by_address:
            return None, None, 0.0
        latency = self.network.latency
        j_mean = latency.jitter_mean_factor()
        j_p99 = latency.jitter_p99_factor()
        servers = self._servers
        tracer = self.tracer
        healthy = self._healthy_share
        shed_weight = 0.0
        mean_acc = 0.0
        buckets: List[Tuple[float, float]] = []  # (p99, weight)
        for address, share in share_by_address.items():
            server = servers.get(address)
            if server is None:
                region = self.network.endpoint(address).region
                server = FluidServer(address, region, self.capacity,
                                     self.service_time)
                servers[address] = server
            arrival = rate_now * share / total_share
            server.offer(arrival)
            if server.utilization >= OVERLOAD_THRESHOLD:
                if not server.overloaded:
                    server.overloaded = True
                    self.overload_onsets += 1
                    if tracer.enabled:
                        tracer.instant("fluid", "overload_onset", now, {
                            "address": address,
                            "utilization": round(server.utilization, 6)})
            elif server.overloaded:
                server.overloaded = False
                self.overload_recoveries += 1
                if tracer.enabled:
                    tracer.instant("fluid", "overload_recovery", now, {
                        "address": address,
                        "utilization": round(server.utilization, 6)})
            served = server.served_fraction()
            if served < 1.0:
                shed_weight += share * (1.0 - served)
            rtt = 2.0 * latency.base_latency(self.region, server.region)
            wait = server.wait if server.wait != float("inf") else 0.0
            mean_lat = rtt * j_mean + wait + server.service_time
            p99_lat = (rtt * j_p99 + wait * _WAIT_TAIL_P99
                       + server.service_time)
            mean_acc += share * mean_lat
            buckets.append((p99_lat, share))
        if healthy <= 0.0:
            return None, None, 0.0
        mean_latency = mean_acc / healthy
        buckets.sort()
        threshold = 0.99 * healthy
        acc = 0.0
        p99_latency = buckets[-1][0]
        for value, weight in buckets:
            acc += weight
            if acc >= threshold:
                p99_latency = value
                break
        return mean_latency, p99_latency, shed_weight / healthy

    def _feed_load(self, now: float) -> None:
        """Flush accumulated arrivals into hosted-shard counters."""
        arrivals = self._load_accum
        self._load_accum = 0.0
        self._last_feed = now
        if arrivals <= 0.0:
            return
        total = self._total_share or 1.0
        runtime = self.runtime
        for flow in self._flows.values():
            if not flow.healthy:
                continue
            server = runtime.server_at(flow.serving)
            if server is None:
                continue
            hosted = server.hosted(flow.shard_id)
            if hosted is not None:
                hosted.requests_served += arrivals * flow.share / total

    # -- introspection -------------------------------------------------------

    def flow_count(self) -> int:
        return len(self._flows)
