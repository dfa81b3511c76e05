"""A Laser-like eventually-consistent key-value store (§3.1, §2.5).

Laser "is built atop SM and processes nearly one billion queries per
second at peak; 9% of those queries are prefix scans" — prefix scans are
exactly what SM's app-key (range) sharding preserves and Slicer's
UUID-key hashing destroys.  This example demonstrates:

* **soft state** (§2.4 option 2): each server's shard data is a cache of
  an external persistent store and is rebuilt on ``add_shard``;
* **range scans**: a scan over ``[low, high)`` within one shard's key
  range is served locally by one server.

Operations (request payloads):

    {"op": "put",  "key": k, "value": v}
    {"op": "get",  "key": k}
    {"op": "scan", "low": a, "high": b}   # [a, b) must lie inside a shard
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..cluster.container import Container
from ..core.spec import AppSpec


@dataclass
class ExternalStore:
    """The durable source of truth the soft-state servers cache (§2.4:
    "an application caches external stores' persistent states in memory
    for fast access")."""

    data: Dict[int, Any] = field(default_factory=dict)
    reads: int = 0
    writes: int = 0

    def put(self, key: int, value: Any) -> None:
        self.writes += 1
        self.data[key] = value

    def range(self, low: int, high: int) -> List[Tuple[int, Any]]:
        self.reads += 1
        return sorted((k, v) for k, v in self.data.items() if low <= k < high)


class KVStoreApp:
    """Builds per-container request handlers for the KV store."""

    def __init__(self, spec: AppSpec) -> None:
        self.spec = spec
        self.external = ExternalStore()
        # Soft state: (address, shard_id) -> {key: value}; lazily
        # (re)hydrated from the external store, so a server restart or a
        # shard migration naturally rebuilds it.
        self._caches: Dict[Tuple[str, str], Dict[int, Any]] = {}
        self.cache_rebuilds = 0

    def handler_factory(self, container: Container):
        address = container.address

        def handler(shard_id: str, request: Dict[str, Any]) -> Any:
            return self._handle(address, shard_id, request or {})

        return handler

    # -- request processing -----------------------------------------------------

    def _cache_for(self, address: str, shard_id: str) -> Dict[int, Any]:
        key = (address, shard_id)
        cache = self._caches.get(key)
        if cache is None:
            shard = self.spec.shard(shard_id)
            cache = dict(self.external.range(shard.key_range.low,
                                             shard.key_range.high))
            self._caches[key] = cache
            self.cache_rebuilds += 1
        return cache

    def _handle(self, address: str, shard_id: str,
                request: Dict[str, Any]) -> Any:
        op = request.get("op")
        cache = self._cache_for(address, shard_id)
        if op == "put":
            key, value = request["key"], request["value"]
            self._check_bounds(shard_id, key)
            self.external.put(key, value)  # write-through, then cache
            cache[key] = value
            return {"ok": True}
        if op == "get":
            key = request["key"]
            self._check_bounds(shard_id, key)
            return {"ok": True, "value": cache.get(key)}
        if op == "scan":
            low, high = request["low"], request["high"]
            shard = self.spec.shard(shard_id)
            if not (shard.key_range.low <= low and high <= shard.key_range.high):
                raise ValueError(
                    f"scan [{low},{high}) crosses shard {shard_id} bounds")
            items = sorted((k, v) for k, v in cache.items()
                           if low <= k < high)
            return {"ok": True, "items": items}
        raise ValueError(f"unknown op {op!r}")

    def _check_bounds(self, shard_id: str, key: int) -> None:
        shard = self.spec.shard(shard_id)
        if key not in shard.key_range:
            raise ValueError(f"key {key} outside shard {shard_id}")
