"""AdEvents: stream processing with materialized state (§2.5).

"AdEvents are a group of stream-processing applications directly related
to revenue generation.  They use option 3 in §2.4 [standard materialized
state] and obtain updates via a Kafka-like data bus. ... They were
converted to primary-only SM applications, using geo-distributed
deployments ... SM helped reduce their machine usage by 67%."

Two pieces:

* :class:`DataBus` — the Kafka-like substrate: per-partition append-only
  logs with offset-based consumption;
* :class:`AdEventsApp` — the SM application: each shard owns a bus
  partition, consumes its log into a materialized per-ad counter view,
  and answers queries from that view.  After a migration or restart the
  new owner rebuilds the view by replaying the log from offset zero
  (exactly §2.4's "in case of a total data loss, application states ...
  can be rebuilt from the external persistent stores").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..cluster.container import Container
from ..core.spec import AppSpec


class DataBus:
    """A Kafka-like durable, partitioned, append-only message bus."""

    def __init__(self, partitions: int) -> None:
        if partitions < 1:
            raise ValueError("need at least one partition")
        self._logs: List[List[Any]] = [[] for _ in range(partitions)]
        self.appends = 0

    @property
    def partitions(self) -> int:
        return len(self._logs)

    def append(self, partition: int, event: Any) -> int:
        """Returns the event's offset within the partition."""
        log = self._logs[partition]
        log.append(event)
        self.appends += 1
        return len(log) - 1

    def read(self, partition: int, offset: int,
             max_events: int = 100) -> Tuple[List[Any], int]:
        """Events from ``offset`` on, plus the next offset to poll."""
        log = self._logs[partition]
        if offset < 0:
            raise ValueError("offset must be >= 0")
        batch = log[offset:offset + max_events]
        return batch, offset + len(batch)


@dataclass
class _View:
    """Materialized per-shard state: ad id → aggregated spend/clicks."""

    counters: Dict[int, Dict[str, float]] = field(default_factory=dict)
    consumed_offset: int = 0


class AdEventsApp:
    """Builds handlers for the AdEvents stream processor.

    Shard i consumes bus partition i.  The view is keyed by
    (server address, shard) so a migration naturally triggers a replay on
    the new owner — ``replays`` counts them.
    """

    def __init__(self, spec: AppSpec, bus: DataBus) -> None:
        if bus.partitions < len(spec.shards):
            raise ValueError("bus needs one partition per shard")
        self.spec = spec
        self.bus = bus
        self._views: Dict[Tuple[str, str], _View] = {}
        self.replays = 0
        self.events_processed = 0

    def _partition_of(self, shard_id: str) -> int:
        return self.spec.shards.index(self.spec.shard(shard_id))

    def handler_factory(self, container: Container):
        address = container.address

        def handler(shard_id: str, request: Dict[str, Any]) -> Any:
            return self._handle(address, shard_id, request or {})

        return handler

    def _view_for(self, address: str, shard_id: str) -> _View:
        key = (address, shard_id)
        view = self._views.get(key)
        if view is None:
            view = _View()
            self._views[key] = view
            self.replays += 1
        self._catch_up(view, shard_id)
        return view

    def _catch_up(self, view: _View, shard_id: str) -> None:
        partition = self._partition_of(shard_id)
        while True:
            events, next_offset = self.bus.read(partition,
                                                view.consumed_offset)
            if not events:
                break
            for event in events:
                self._apply(view, event)
            view.consumed_offset = next_offset

    def _apply(self, view: _View, event: Dict[str, Any]) -> None:
        ad_id = event["ad_id"]
        counters = view.counters.setdefault(
            ad_id, {"impressions": 0.0, "clicks": 0.0, "spend": 0.0})
        counters["impressions"] += event.get("impressions", 0)
        counters["clicks"] += event.get("clicks", 0)
        counters["spend"] += event.get("spend", 0.0)
        self.events_processed += 1

    def _handle(self, address: str, shard_id: str,
                request: Dict[str, Any]) -> Any:
        op = request.get("op")
        if op == "ingest":
            # Producers write to the bus through the owning shard, which
            # keeps per-key ordering through one server (§2.4, soft state).
            partition = self._partition_of(shard_id)
            offset = self.bus.append(partition, request["event"])
            view = self._view_for(address, shard_id)
            return {"ok": True, "offset": offset,
                    "consumed": view.consumed_offset}
        if op == "query":
            view = self._view_for(address, shard_id)
            counters = view.counters.get(request["ad_id"])
            return {"ok": True, "counters": counters}
        raise ValueError(f"unknown op {op!r}")
