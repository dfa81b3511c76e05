"""Service discovery: disseminates shard maps to application clients.

"[The orchestrator] distributes the new shard map to application clients
via the service discovery system, which internally uses a multi-level
data-distribution tree to fan out" (§3.2).  We model the tree as a
per-subscriber propagation delay: every published map version reaches
each subscriber after ``base_delay`` plus jitter (deeper tree levels =
longer tails).  Clients therefore route with *slightly stale* maps, which
is exactly what makes non-graceful migration drop requests (Fig 17).

Dissemination is delta-encoded (§6 scale): a publish carries the full
snapshot by reference (the authoritative store, and what ``latest()`` /
fresh subscribers see) plus an optional :class:`ShardMapDelta` describing
what changed since the previous version.  A delta-aware subscription
tracks the last version it delivered and forwards the delta only when it
chains onto that version; otherwise — first delivery, reordered fan-out,
reconnect, or an orchestrator failover that resumed version numbering —
it falls back to a full-snapshot *resync* (delta ``None``), so consumers
can always rebuild from scratch.  The wire cost modeled by the scale
benchmark is ``delta_wire_bytes`` per steady-state delivery instead of
``map_wire_bytes``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.shard_map import ShardMap, ShardMapDelta
from ..sim.engine import Engine


@dataclass
class Subscription:
    """Handle returned by ``subscribe``; call ``cancel`` to stop updates.

    Plain subscriptions (``delta_aware=False``) receive every delivered
    map, in fan-out order, stale ones included — version filtering is
    the consumer's business (the router ignores stale
    versions itself, and Fig 17 depends on observing late deliveries).
    Delta-aware subscriptions own the version bookkeeping: stale
    deliveries are dropped here, and the callback receives
    ``(shard_map, delta)`` where ``delta`` is only non-None when it
    chains exactly onto the last delivered version.
    """

    app: str
    callback: Callable
    active: bool = True
    delta_aware: bool = False
    last_version: int = field(default=0, repr=False)
    deliveries: int = field(default=0, repr=False)
    resyncs: int = field(default=0, repr=False)
    stale_drops: int = field(default=0, repr=False)

    def cancel(self) -> None:
        self.active = False

    def deliver(self, shard_map: ShardMap,
                delta: Optional[ShardMapDelta] = None) -> None:
        """Scheduled delivery callback (bound method — no closure per
        publish x subscriber)."""
        if not self.active:
            return
        if not self.delta_aware:
            self.callback(shard_map)
            return
        if shard_map.version <= self.last_version:
            self.stale_drops += 1
            return
        if delta is not None and delta.base_version != self.last_version:
            # Reconnect, reordered delivery, or a publisher failover whose
            # first delta chains onto a version we never saw: fall back to
            # the full snapshot riding alongside the delta.
            self.resyncs += 1
            delta = None
        self.last_version = shard_map.version
        self.deliveries += 1
        self.callback(shard_map, delta)

    def deliver_pair(self, pair: tuple) -> None:
        """Scheduled delivery of a ``(shard_map, delta)`` publish — the
        engine's ``call_after`` carries a single argument, so delta
        publishes share one packed tuple across all subscribers."""
        self.deliver(pair[0], pair[1])


class ServiceDiscovery:
    """Versioned map store with delayed fan-out to subscribers."""

    def __init__(self, engine: Engine, base_delay: float = 1.0,
                 jitter: float = 1.0, rng: Optional[random.Random] = None) -> None:
        if base_delay < 0 or jitter < 0:
            raise ValueError("delays must be non-negative")
        self.engine = engine
        self.base_delay = base_delay
        self.jitter = jitter
        self.rng = rng or random.Random(0)
        self._maps: Dict[str, ShardMap] = {}
        self._subscribers: Dict[str, List[Subscription]] = {}
        self.publishes = 0
        self.delta_publishes = 0
        self.full_publishes = 0

    def publish(self, shard_map: ShardMap,
                delta: Optional[ShardMapDelta] = None) -> None:
        """Store the new version and fan it out.

        ``delta``, when given, must describe this exact version; it is
        forwarded to delta-aware subscribers so they can patch their last
        map instead of reindexing the full snapshot.  A delta whose base
        is not the currently published version (e.g. the first publish of
        a failed-over orchestrator against a fresh discovery) is dropped
        and the publish degrades to full-snapshot dissemination rather
        than failing.
        """
        current = self._maps.get(shard_map.app)
        if current is not None and shard_map.version <= current.version:
            raise ValueError(
                f"{shard_map.app}: version {shard_map.version} not newer "
                f"than published {current.version}")
        if delta is not None:
            if delta.app != shard_map.app or delta.version != shard_map.version:
                raise ValueError(
                    f"{shard_map.app}: delta v{delta.version} does not "
                    f"describe published map v{shard_map.version}")
            if current is not None and delta.base_version != current.version:
                delta = None  # broken chain: degrade to full dissemination
        self._maps[shard_map.app] = shard_map
        self.publishes += 1
        if delta is not None:
            self.delta_publishes += 1
        else:
            self.full_publishes += 1
        pair = None if delta is None else (shard_map, delta)
        for subscription in self._subscribers.get(shard_map.app, []):
            if not subscription.active:
                continue
            delay = self.base_delay + self.rng.uniform(0.0, self.jitter)
            if pair is None:
                self.engine.call_after(delay, subscription.deliver, shard_map)
            else:
                self.engine.call_after(delay, subscription.deliver_pair, pair)

    def subscribe(self, app: str, callback: Callable,
                  deltas: bool = False) -> Subscription:
        """Register for updates; the current map (if any) arrives immediately.

        With ``deltas=True`` the callback signature is
        ``callback(shard_map, delta)`` — ``delta`` is ``None`` whenever
        the subscriber must resync from the full snapshot (including the
        initial delivery), and otherwise chains exactly onto the previous
        map this subscription delivered.
        """
        subscription = Subscription(
            app=app,
            callback=callback,
            delta_aware=deltas,
        )
        self._subscribers.setdefault(app, []).append(subscription)
        current = self._maps.get(app)
        if current is not None:
            self.engine.call_after(0.0, subscription.deliver, current)
        return subscription

    def latest(self, app: str) -> Optional[ShardMap]:
        """The authoritative newest map (what a fresh subscriber will get)."""
        return self._maps.get(app)
