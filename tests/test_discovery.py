"""Unit tests for service discovery and the service router."""

import random

import pytest

from repro.core.shard_map import ShardMap, ShardMapEntry
from repro.discovery.router import RoutingError, ServiceRouter
from repro.discovery.service_discovery import ServiceDiscovery
from repro.sim.engine import Engine
from repro.sim.network import Network


def make_map(version=1, app="app", entries=None):
    if entries is None:
        entries = [ShardMapEntry("s0", 0, 100, "srv/a", ("srv/b",))]
    return ShardMap(app=app, version=version, entries=tuple(entries))


@pytest.fixture
def engine():
    return Engine()


class TestServiceDiscovery:
    def test_subscriber_receives_published_map(self, engine):
        discovery = ServiceDiscovery(engine, base_delay=1.0, jitter=0.0)
        received = []
        discovery.subscribe("app", received.append)
        discovery.publish(make_map())
        engine.run()
        assert len(received) == 1
        assert received[0].version == 1

    def test_delivery_is_delayed(self, engine):
        discovery = ServiceDiscovery(engine, base_delay=5.0, jitter=0.0)
        received = []
        discovery.subscribe("app", lambda m: received.append(engine.now))
        discovery.publish(make_map())
        engine.run()
        assert received == [5.0]

    def test_new_subscriber_gets_current_map(self, engine):
        discovery = ServiceDiscovery(engine, base_delay=0.0, jitter=0.0)
        discovery.publish(make_map())
        engine.run()
        received = []
        discovery.subscribe("app", received.append)
        engine.run()
        assert len(received) == 1

    def test_stale_version_rejected(self, engine):
        discovery = ServiceDiscovery(engine)
        discovery.publish(make_map(version=2))
        with pytest.raises(ValueError):
            discovery.publish(make_map(version=2))

    def test_cancel_stops_updates(self, engine):
        discovery = ServiceDiscovery(engine, base_delay=0.0, jitter=0.0)
        received = []
        subscription = discovery.subscribe("app", received.append)
        subscription.cancel()
        discovery.publish(make_map())
        engine.run()
        assert received == []

    def test_per_app_isolation(self, engine):
        discovery = ServiceDiscovery(engine, base_delay=0.0, jitter=0.0)
        received = []
        discovery.subscribe("other", received.append)
        discovery.publish(make_map(app="app"))
        engine.run()
        assert received == []

    def test_latest(self, engine):
        discovery = ServiceDiscovery(engine)
        assert discovery.latest("app") is None
        discovery.publish(make_map())
        assert discovery.latest("app").version == 1


class TestServiceRouter:
    def _router(self, engine):
        network = Network(engine, rng=random.Random(1))
        network.register("client", "FRC")
        router = ServiceRouter(engine, network, "client", attempts=2,
                               rpc_timeout=0.5, retry_backoff=0.1)
        return network, router

    def test_no_map_raises(self, engine):
        _network, router = self._router(engine)
        with pytest.raises(RoutingError):
            router.index_for_key(5)

    def test_key_lookup_by_interval(self, engine):
        _network, router = self._router(engine)
        entries = [
            ShardMapEntry("s0", 0, 10, "a", ()),
            ShardMapEntry("s1", 10, 100, "b", ()),
        ]
        router.on_map_update(make_map(entries=entries))
        assert router.index_for_key(0) == 0
        assert router.index_for_key(9) == 0
        assert router.index_for_key(10) == 1
        assert router.index_for_key(99) == 1
        assert router.pick_address(9) == ("a", "s0")
        assert router.pick_address(10) == ("b", "s1")

    def test_uncovered_key_raises(self, engine):
        _network, router = self._router(engine)
        entries = [ShardMapEntry("s0", 10, 20, "a", ())]
        router.on_map_update(make_map(entries=entries))
        with pytest.raises(RoutingError):
            router.index_for_key(5)
        with pytest.raises(RoutingError):
            router.index_for_key(25)

    def test_stale_map_update_ignored(self, engine):
        _network, router = self._router(engine)
        router.on_map_update(make_map(version=5))
        router.on_map_update(make_map(version=3))
        assert router._map.version == 5
        assert router.map_updates == 1

    def test_primary_preferred(self, engine):
        network, router = self._router(engine)
        network.register("a", "ODN")
        network.register("b", "FRC")
        entries = [ShardMapEntry("s0", 0, 100, "a", ("b",))]
        router.on_map_update(make_map(entries=entries))
        address, shard = router.pick_address(5, prefer_primary=True)
        assert address == "a"  # primary, despite being farther
        assert shard == "s0"

    def test_nearest_replica_for_reads(self, engine):
        network, router = self._router(engine)
        network.register("a", "ODN")
        network.register("b", "FRC")
        entries = [ShardMapEntry("s0", 0, 100, "a", ("b",))]
        router.on_map_update(make_map(entries=entries))
        address, _shard = router.pick_address(5, prefer_primary=False)
        assert address == "b"  # same region as the client

    def test_exclude_forces_other_replica(self, engine):
        network, router = self._router(engine)
        network.register("a", "FRC")
        network.register("b", "PRN")
        entries = [ShardMapEntry("s0", 0, 100, "a", ("b",))]
        router.on_map_update(make_map(entries=entries))
        address, _ = router.pick_address(5, exclude=("a",))
        assert address == "b"

    def test_primary_route_materialises_no_entry(self, engine):
        """A route-cache miss on a shard with a primary reads the primary
        column; an entry is built only when the secondaries are needed."""
        _network, router = self._router(engine)
        entries = [ShardMapEntry("s0", 0, 10, "a", ("b",)),
                   ShardMapEntry("s1", 10, 20, "c", ()),
                   ShardMapEntry("s2", 20, 30, None, ("d",))]
        shard_map = make_map(entries=entries)
        router.on_map_update(shard_map)
        assert router.route_for(5) == ("a", "s0")
        assert router.route_for(15) == ("c", "s1")
        assert router.pick_address(5) == ("a", "s0")
        assert router.route_cache_misses == 2
        assert shard_map._entry_cache == {}
        # The secondaries are needed: nearest-replica reads, an excluded
        # primary, a shard without one.
        assert router.route_for(5, prefer_primary=False) == ("a", "s0")
        assert set(shard_map._entry_cache) == {0}
        assert router.pick_address(5, exclude=("a",)) == ("b", "s0")
        assert router.route_for(25) == ("d", "s2")
        assert set(shard_map._entry_cache) == {0, 2}
        with pytest.raises(RoutingError):
            router.pick_address(15, exclude=("c",))

    def test_no_routable_replica_raises(self, engine):
        _network, router = self._router(engine)
        entries = [ShardMapEntry("s0", 0, 100, None, ())]
        router.on_map_update(make_map(entries=entries))
        with pytest.raises(RoutingError):
            router.pick_address(5)

    def test_request_retries_another_replica(self, engine):
        network, router = self._router(engine)
        primary = network.register("a", "FRC")
        backup = network.register("b", "FRC")
        primary.on("app.request", lambda m: (_ for _ in ()).throw(
            RuntimeError("down")))
        backup.on("app.request", lambda m: "served-by-b")
        entries = [ShardMapEntry("s0", 0, 100, "a", ("b",))]
        router.on_map_update(make_map(entries=entries))
        op = router.start_request(5, None)
        engine.run()
        assert op.outcome.ok
        assert op.outcome.value == "served-by-b"
        assert op.outcome.attempts == 2

    def test_request_fails_after_attempts(self, engine):
        network, router = self._router(engine)
        network.register("a", "FRC")
        network.set_endpoint_up("a", False)
        entries = [ShardMapEntry("s0", 0, 100, "a", ())]
        router.on_map_update(make_map(entries=entries))
        op = router.start_request(5, None)
        engine.run()
        assert not op.outcome.ok
        assert op.outcome.attempts == 2
