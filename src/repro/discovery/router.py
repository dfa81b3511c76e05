"""Service router: the client-side library that routes requests by key.

"The service router library is linked into application clients.  It
learns from the service discovery system about which application server
is responsible for which shards and routes requests accordingly" (§3.2).

The router keeps a sorted-interval index over the latest delivered shard
map (app-key approach — ranges, not hashes, so prefix scans stay
possible), picks the primary for primary-routed requests or the
nearest replica by region for secondary-reads, and retries on
failure/misroute with the freshest map available.

Requests run through a slotted :class:`_RequestOp` state machine
(mirroring the network's ``RpcCall``): retries, backoff, misroute
exclusion and outcome recording are precomputed bound-method callbacks,
so the steady-state request path allocates no closures, generator frames
or per-request processes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from ..core.shard_map import AppKeyIndex, ShardMap, ShardMapDelta
from ..sim.engine import Engine
from ..sim.network import Network, RpcResult


class RoutingError(RuntimeError):
    """No routable replica for a key (empty map or unassigned shard)."""


@dataclass(slots=True)
class RequestOutcome:
    """Bookkeeping for one logical client request (across retries)."""

    ok: bool
    value: Any = None
    error: str = ""
    latency: float = 0.0
    attempts: int = 1
    shard_id: str = ""


class ServiceRouter:
    """Routes by application key using the latest shard map delivered.

    One router per client endpoint.  The owning client wires
    :meth:`on_map_update` to a :class:`ServiceDiscovery` subscription.
    """

    def __init__(self, engine: Engine, network: Network, client_address: str,
                 attempts: int = 3, rpc_timeout: float = 1.0,
                 retry_backoff: float = 0.5) -> None:
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        self.engine = engine
        self.network = network
        self.client_address = client_address
        self.attempts = attempts
        self.rpc_timeout = rpc_timeout
        self.retry_backoff = retry_backoff
        self._map: Optional[ShardMap] = None
        self._index: Optional[AppKeyIndex] = None
        self.map_updates = 0
        # address -> region (or None), valid for one registration epoch of
        # the network; endpoint regions are immutable while registered.
        self._region_cache: dict = {}
        self._region_epoch = -1
        # key -> (address, shard_id) for exclude-free routing, one dict per
        # prefer_primary flag.  A cached route depends only on the entry
        # content for that key and on which endpoints are registered, so
        # invalidation is two-pronged: a delta-carrying map delivery
        # evicts only the keys of changed shards (via the per-shard key
        # buckets below), while a delta-less delivery or an endpoint
        # change clears wholesale.  All clearing funnels through
        # _clear_route_caches — no double clears.
        self._route_caches: Tuple[dict, dict] = ({}, {})
        # shard_id -> [cached keys], parallel to _route_caches: the
        # reverse index that makes per-shard eviction O(cached keys of
        # that shard) instead of O(cache).
        self._route_keys_by_shard: Tuple[dict, dict] = ({}, {})
        self._route_epoch = -1
        # Routing counters: plain unconditional int bumps on the hot path
        # (cheaper than any guard); surfaced as registry gauges below.
        self.requests_started = 0
        self.requests_failed = 0
        self.retries = 0
        self.misroutes = 0
        self.route_cache_hits = 0
        self.route_cache_misses = 0
        self.route_evictions = 0
        self.map_resyncs = 0
        self._tracer = network.tracer
        if self._tracer.enabled and self._tracer.registry is not None:
            registry = self._tracer.registry
            base = f"router.{client_address}"
            registry.gauge(f"{base}.requests_started",
                           lambda: self.requests_started)
            registry.gauge(f"{base}.requests_failed",
                           lambda: self.requests_failed)
            registry.gauge(f"{base}.retries", lambda: self.retries)
            registry.gauge(f"{base}.misroutes", lambda: self.misroutes)
            registry.gauge(f"{base}.route_cache_hits",
                           lambda: self.route_cache_hits)
            registry.gauge(f"{base}.route_cache_misses",
                           lambda: self.route_cache_misses)
            registry.gauge(f"{base}.route_evictions",
                           lambda: self.route_evictions)
            registry.gauge(f"{base}.map_resyncs",
                           lambda: self.map_resyncs)

    # -- map handling -----------------------------------------------------------

    def on_map_update(self, shard_map: ShardMap,
                      delta: Optional[ShardMapDelta] = None) -> None:
        """Adopt a newly delivered map.

        With a ``delta`` chaining onto the map we currently route with,
        only the cached routes of changed shards are evicted — the warm
        cache survives the frequent small publishes that dominate steady
        state.  Any break in the chain (first delivery, delta-less
        publish, reordered versions, layout change) falls back to a
        wholesale resync.
        """
        previous = self._map
        if previous is not None and shard_map.version <= previous.version:
            return  # tree fan-out can reorder deliveries; ignore stale ones
        self._map = shard_map
        # The sorted interval index lives on the app's shared AppKeyIndex:
        # one bisect structure per app, reused across every version and
        # every router, never rebuilt on delivery.
        self._index = shard_map.key_index
        self.map_updates += 1
        if (delta is not None and previous is not None
                and delta.base_version == previous.version
                and delta.key_index is previous.key_index
                and shard_map.key_index is previous.key_index):
            self._evict_changed(delta)
        else:
            self.map_resyncs += 1
            self._clear_route_caches()

    def _evict_changed(self, delta: ShardMapDelta) -> None:
        """O(changed) eviction: drop cached routes only for shards whose
        columns changed in this delta.  A cache that holds no route (its
        reverse index is empty) is not walked at all."""
        shard_ids = delta.key_index.shard_ids
        for cache, bucket in zip(self._route_caches,
                                 self._route_keys_by_shard):
            if not bucket:
                continue
            for i in delta.indices:
                keys = bucket.pop(shard_ids[i], None)
                if keys:
                    self.route_evictions += len(keys)
                    for key in keys:
                        cache.pop(key, None)

    def _clear_route_caches(self) -> None:
        """The single wholesale-invalidation site for the route caches."""
        self._route_caches[0].clear()
        self._route_caches[1].clear()
        self._route_keys_by_shard[0].clear()
        self._route_keys_by_shard[1].clear()

    def index_for_key(self, key: int) -> int:
        """Column index of the shard covering ``key``."""
        index = self._index
        if index is None or not len(index):
            raise RoutingError("no shard map received yet")
        position = bisect.bisect_right(index.sorted_lows, key) - 1
        if position < 0:
            raise RoutingError(f"key {key} below the key space")
        entry_index = index.sorted_order[position]
        if key >= index.key_highs[entry_index]:
            raise RoutingError(f"key {key} not covered by any shard")
        return entry_index

    # -- replica selection ----------------------------------------------------------

    def _region_of(self, address: str) -> Optional[str]:
        network = self.network
        if network.registration_epoch != self._region_epoch:
            self._region_cache = {}
            self._region_epoch = network.registration_epoch
        cache = self._region_cache
        try:
            return cache[address]
        except KeyError:
            pass
        region = (network.endpoint(address).region
                  if network.has_endpoint(address) else None)
        cache[address] = region
        return region

    def pick_address(self, key: int, prefer_primary: bool = True,
                     exclude: Tuple[str, ...] = ()) -> Tuple[str, str]:
        """(address, shard_id) for a key; nearest replica for reads.

        ``exclude`` lists addresses already tried this request.  A
        primary-routed key resolves from the map's primary column; an
        entry is materialised only when the secondaries are needed.
        """
        entry_index = self.index_for_key(key)
        shard_map = self._map
        if prefer_primary:
            primary = shard_map.primary_at(entry_index)
            if primary is not None and primary not in exclude:
                return primary, self._index.shard_ids[entry_index]
        entry = shard_map.entry_at(entry_index)
        candidates = [a for a in entry.all_addresses() if a not in exclude]
        if not candidates:
            raise RoutingError(f"shard {entry.shard_id}: no routable replica")
        client_region = self._region_of(self.client_address)
        if client_region is None:
            return candidates[0], entry.shard_id

        def distance(address: str) -> float:
            region = self._region_of(address)
            if region is None:
                return float("inf")
            return self.network.latency.base_latency(client_region, region)

        best = min(candidates, key=distance)
        return best, entry.shard_id

    def route_for(self, key: int,
                  prefer_primary: bool = True) -> Tuple[str, str]:
        """Cached exclude-free :meth:`pick_address`.

        Steady-state requests (no replica excluded yet) resolve through
        one dict lookup instead of the bisect plus replica-selection walk;
        the cache is scoped to the current (map version, registration
        epoch) pair, which is exactly the state ``pick_address`` reads.
        Routing failures are never cached.
        """
        # Inline _sync_route_epoch: this runs once per request, and the
        # extra call costs ~25% of the whole cache-hit path.
        if self.network.registration_epoch != self._route_epoch:
            self._route_epoch = self.network.registration_epoch
            self._clear_route_caches()
        which = 1 if prefer_primary else 0
        cache = self._route_caches[which]
        route = cache.get(key)
        if route is None:
            self.route_cache_misses += 1
            route = self.pick_address(key, prefer_primary=prefer_primary)
            cache[key] = route
            bucket = self._route_keys_by_shard[which]
            shard_keys = bucket.get(route[1])
            if shard_keys is None:
                bucket[route[1]] = [key]
            else:
                shard_keys.append(key)
        else:
            self.route_cache_hits += 1
        return route

    # -- the request state machine -------------------------------------------------

    def start_request(self, key: int, payload: Any,
                      method: str = "app.request",
                      prefer_primary: bool = True,
                      on_done: Optional[Callable[[RequestOutcome], None]] = None,
                      ) -> "_RequestOp":
        """Fire one logical request through the retry state machine.

        ``on_done(outcome)`` runs at completion (success, or after
        ``attempts`` tries all failed — matching how production clients
        hide transient misroutes behind retries).  The returned op's
        ``outcome`` is ``None`` until the request settles.
        """
        return _RequestOp(self, key, payload, method, prefer_primary,
                          on_done)


class _RequestOp:
    """Retry state machine for one logical client request.

    Bound methods of this object are the scheduled callbacks (backoff
    wakeups, RPC completions), so a request costs one slotted object and
    one message dict — no generator frames, closures, processes or
    per-request signals.  The retry semantics: pick a replica (excluding
    ones already tried), RPC it, back off ``retry_backoff`` between
    attempts, and fail only after ``attempts`` tries — with a routing
    error on the final attempt still paying the backoff before the
    failure surfaces.
    """

    __slots__ = ("router", "engine", "message", "method", "prefer_primary",
                 "on_done", "start", "attempt", "tried", "last_error",
                 "address", "shard_id", "outcome")

    def __init__(self, router: ServiceRouter, key: int, payload: Any,
                 method: str, prefer_primary: bool,
                 on_done: Optional[Callable[[RequestOutcome], None]]) -> None:
        self.router = router
        self.engine = router.engine
        self.method = method
        self.prefer_primary = prefer_primary
        self.on_done = on_done
        self.start = router.engine.now
        self.attempt = 1
        self.tried: Tuple[str, ...] = ()
        self.last_error = ""
        self.address = ""
        self.shard_id = ""
        self.outcome: Optional[RequestOutcome] = None
        # One message dict per logical request, updated across retries.
        # Safe to reuse: a retry only starts after the previous attempt
        # settled, and servers copy the dict before async forwarding.
        self.message = {"key": key, "shard_id": "", "payload": payload,
                        "forwarded": False}
        router.requests_started += 1
        self._attempt_once()

    def _attempt_once(self) -> None:
        router = self.router
        try:
            if self.tried:
                address, shard_id = router.pick_address(
                    self.message["key"], prefer_primary=self.prefer_primary,
                    exclude=self.tried)
            else:
                address, shard_id = router.route_for(
                    self.message["key"], self.prefer_primary)
        except RoutingError as exc:
            self.last_error = str(exc)
            self.engine.call_after(router.retry_backoff, self._backoff_done)
            return
        self.address = address
        self.shard_id = shard_id
        message = self.message
        message["shard_id"] = shard_id
        router.network.rpc(router.client_address, address, self.method,
                           message, timeout=router.rpc_timeout,
                           on_complete=self._rpc_done)

    def _rpc_done(self, result: RpcResult) -> None:
        if result.ok:
            self._finish(RequestOutcome(
                ok=True, value=result.value,
                latency=self.engine.now - self.start,
                attempts=self.attempt, shard_id=self.shard_id))
            return
        router = self.router
        self.last_error = result.error
        self.tried = self.tried + (self.address,)
        if "NotOwner" in result.error:
            # The map we routed with was stale: the server disowned the
            # shard (§3.2 — clients hide misroutes behind retries).
            router.misroutes += 1
            tracer = router._tracer
            if tracer.enabled:
                tracer.instant("router", "misroute", self.engine.now,
                               {"client": router.client_address,
                                "address": self.address,
                                "shard": self.shard_id,
                                "attempt": self.attempt})
        if self.attempt < router.attempts:
            router.retries += 1
            self.engine.call_after(router.retry_backoff,
                                   self._backoff_done)
        else:
            self._fail()

    def _backoff_done(self) -> None:
        if self.attempt >= self.router.attempts:
            self._fail()  # routing error on the final attempt
            return
        self.attempt += 1
        self._attempt_once()

    def _fail(self) -> None:
        router = self.router
        router.requests_failed += 1
        tracer = router._tracer
        if tracer.enabled:
            tracer.instant("router", "request_failed", self.engine.now,
                           {"client": router.client_address,
                            "shard": self.shard_id,
                            "error": self.last_error})
        self._finish(RequestOutcome(
            ok=False, error=self.last_error,
            latency=self.engine.now - self.start,
            attempts=router.attempts, shard_id=self.shard_id))

    def _finish(self, outcome: RequestOutcome) -> None:
        self.outcome = outcome
        if self.on_done is not None:
            self.on_done(outcome)
