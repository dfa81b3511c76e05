"""Delta-encoded shard-map dissemination: correctness and protocol tests.

The contract under test (DESIGN.md "Shard-map delta dissemination"):

* ``AssignmentTable.snapshot_delta()`` emits a delta that, applied to the
  previous version, reproduces the full snapshot **bit-identically** —
  every entry field, under arbitrary interleavings of every mutator.
* A subscriber whose base version does not chain resyncs from the full
  snapshot instead of applying the delta (reconnect, reordering,
  orchestrator failover via ``resume_versions_from``).
* The router's targeted invalidation keeps unchanged keys' cached routes
  warm and evicts changed ones.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shard_map import (
    _CHUNK,
    AppKeyIndex,
    AssignmentTable,
    ReplicaState,
    Role,
    ShardMap,
    ShardMapDelta,
    ShardMapEntry,
    delta_wire_bytes,
    map_wire_bytes,
)
from repro.core.spec import AppSpec, ReplicationStrategy, uniform_shards
from repro.discovery.router import RoutingError, ServiceRouter
from repro.discovery.service_discovery import ServiceDiscovery
from repro.sim.engine import Engine
from repro.sim.network import Network

STATES = [ReplicaState.PENDING, ReplicaState.PREPARING, ReplicaState.READY,
          ReplicaState.DRAINING]


def make_table(shards=20, replica_count=2, name="app"):
    spec = AppSpec(
        name=name,
        shards=uniform_shards(shards, key_space=shards * 10,
                              replica_count=replica_count),
        replication=ReplicationStrategy.PRIMARY_SECONDARY,
    )
    return AssignmentTable(spec)


def mutate_randomly(table, rng, ops=8):
    """Apply a random interleaving of every mutator the table has."""
    for _ in range(ops):
        op = rng.randrange(5)
        live = table.all_replicas()
        if op == 0 or not live:  # add
            shard = rng.choice(table.spec.shards).shard_id
            if table.primary_of(shard) is None and rng.random() < 0.5:
                role = Role.PRIMARY
            else:
                role = Role.SECONDARY
            table.add(shard, f"srv/{rng.randrange(10)}", role,
                      state=rng.choice(STATES))
        elif op == 1:  # drop
            table.drop(rng.choice(live).replica_id)
        elif op == 2:  # set_state
            table.set_state(rng.choice(live).replica_id, rng.choice(STATES))
        elif op == 3:  # set_role (demote a primary, or promote if none)
            replica = rng.choice(live)
            if replica.role is Role.PRIMARY:
                table.set_role(replica.replica_id, Role.SECONDARY)
            elif table.primary_of(replica.shard_id) is None:
                table.set_role(replica.replica_id, Role.PRIMARY)
        else:  # relocate
            table.relocate(rng.choice(live).replica_id,
                           f"srv/{rng.randrange(10)}")


def all_entries(shard_map):
    return [shard_map.entry_at(i) for i in range(len(shard_map))]


def changed_ids(delta):
    """Shard ids a delta names, in the order it names them."""
    return [delta.key_index.shard_ids[i] for i in delta.indices]


def empty_delta(app, version, base_version, key_index):
    return ShardMapDelta(app, version, base_version, key_index, (), (), ())


def two_shard_map():
    return ShardMap("app", 1, entries=(
        ShardMapEntry("s0", 0, 10, "a", ()),
        ShardMapEntry("s1", 10, 20, "b", ()),
    ))


def assert_maps_identical(applied, snapshot):
    """Field-for-field equality, not just the fast columnar __eq__."""
    assert applied == snapshot
    assert applied.app == snapshot.app
    assert applied.version == snapshot.version
    assert applied.entry_count == snapshot.entry_count
    # every field of every entry
    assert all_entries(applied) == all_entries(snapshot)


class TestDeltaProperty:
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_mutations_delta_equals_snapshot(self, seed):
        """The headline property: for arbitrary mutation interleavings,
        previous.apply_delta(delta) is bit-identical to the snapshot."""
        rng = random.Random(seed)
        table = make_table(shards=rng.choice([5, 17, 40]))
        current = None
        for _round in range(25):
            mutate_randomly(table, rng, ops=rng.randrange(1, 10))
            snapshot, delta = table.snapshot_delta()
            if current is not None:
                assert delta.base_version == current.version
                assert_maps_identical(current.apply_delta(delta), snapshot)
            current = snapshot

    def test_delta_changed_is_exactly_the_dirty_set(self):
        table = make_table(shards=10)
        table.snapshot()  # flush the initial all-dirty state
        a = table.add("shard3", "srv/a", Role.PRIMARY,
                      state=ReplicaState.READY)
        table.add("shard7", "srv/b", Role.SECONDARY,
                  state=ReplicaState.READY)
        table.relocate(a.replica_id, "srv/c")
        _snapshot, delta = table.snapshot_delta()
        assert changed_ids(delta) == ["shard3", "shard7"]
        assert delta.primaries == ("srv/c", None)
        assert delta.secondaries == ((), ("srv/b",))

    def test_quiet_publish_has_empty_delta(self):
        table = make_table()
        snapshot, delta = table.snapshot_delta()
        assert len(delta.indices) == len(snapshot)  # first: all
        snapshot2, delta2 = table.snapshot_delta()
        assert delta2.indices == delta2.primaries == delta2.secondaries == ()
        assert delta2.base_version == snapshot.version
        assert snapshot.apply_delta(delta2) == snapshot2

    def test_stale_base_apply_raises(self):
        table = make_table()
        v1, _ = table.snapshot_delta()
        table.add("shard0", "srv/a", Role.PRIMARY, state=ReplicaState.READY)
        _v2, d2 = table.snapshot_delta()
        table.add("shard1", "srv/b", Role.PRIMARY, state=ReplicaState.READY)
        _v3, d3 = table.snapshot_delta()
        with pytest.raises(ValueError):
            v1.apply_delta(d3)  # skips v2
        assert v1.apply_delta(d2).version == 2

    def test_wrong_app_apply_raises(self):
        v1, _ = make_table(name="a").snapshot_delta()
        _other, delta = make_table(name="b").snapshot_delta()
        with pytest.raises(ValueError):
            v1.apply_delta(delta)

    def test_failover_epoch_delta_chains_onto_persisted_version(self):
        """resume_versions_from: the successor's first delta must apply
        cleanly at a subscriber holding the predecessor's last map."""
        table = make_table(shards=8)
        replicas = [table.add(f"shard{i}", f"srv/{i}", Role.PRIMARY,
                              state=ReplicaState.READY) for i in range(8)]
        last_map, _ = table.snapshot_delta()
        assert last_map.version == 1

        # Successor: fresh table, version numbering resumed, replicas
        # restored from persisted state (everything becomes dirty) — the
        # same recovery flow as Orchestrator._restore_state.
        successor = make_table(shards=8)
        successor.resume_versions_from(last_map.version)
        for replica in replicas:
            successor.add(replica.shard_id, replica.address, replica.role,
                          state=replica.state)
        snapshot, delta = successor.snapshot_delta()
        assert snapshot.version == 2
        assert delta.base_version == 1
        assert_maps_identical(last_map.apply_delta(delta), snapshot)

    @pytest.mark.parametrize("changed", [
        (("s0", "s2"), (0, 20), (10, 30)),   # unknown shard
        (("s0", "s1"), (0, 10), (10, 25)),   # different key bounds
    ])
    def test_layout_changing_delta_raises(self, changed):
        """A delta cut from a layout other than the map's does not
        chain: the subscriber resyncs from the full snapshot instead."""
        base = two_shard_map()
        delta = ShardMapDelta(app="app", version=2, base_version=1,
                              key_index=AppKeyIndex(*changed),
                              indices=(1,), primaries=("c",),
                              secondaries=((),))
        with pytest.raises(ValueError):
            base.apply_delta(delta)
        assert base.entry("s1").primary == "b"  # base left untouched

    def test_foreign_but_equal_layout_applies(self):
        """The layout check is by content when the index objects differ
        (a failed-over publisher rebuilds its index from the same spec)."""
        base = two_shard_map()
        rebuilt = AppKeyIndex(("s0", "s1"), (0, 10), (10, 20))
        assert rebuilt is not base.key_index
        delta = ShardMapDelta("app", 2, 1, rebuilt, (1,), ("c",), (("d",),))
        applied = base.apply_delta(delta)
        assert applied.key_index is base.key_index
        assert applied.entry("s1") == ShardMapEntry("s1", 10, 20, "c", ("d",))
        assert applied.entry("s0") == base.entry("s0")

    @pytest.mark.parametrize("index", [-1, 2])
    def test_out_of_range_index_raises(self, index):
        base = two_shard_map()
        delta = ShardMapDelta("app", 2, 1, base.key_index, (0, index),
                              ("c", "c"), ((), ()))
        with pytest.raises(ValueError):
            base.apply_delta(delta)
        assert base.entry("s0").primary == "a"  # base left untouched

    @pytest.mark.parametrize("shards", [_CHUNK - 1, _CHUNK, _CHUNK + 1,
                                        2 * _CHUNK + 1],
                             ids=["C-1", "C", "C+1", "2C+1"])
    def test_delta_equals_snapshot_across_chunk_boundaries(self, shards):
        """The headline property on tables whose last chunk is short,
        exact, one over and two over: the patched chunk is copied on both
        sides, every other chunk is the same object in consecutive
        versions, and the base map is left as it was."""
        rng = random.Random(shards)
        table = make_table(shards=shards)
        published, _ = table.snapshot_delta()
        replica = published  # a subscriber's own chain of applied deltas
        edges = sorted({0, _CHUNK - 1, _CHUNK, 2 * _CHUNK, shards - 1}
                       & set(range(shards)))
        for round_index in range(12):
            index = edges[round_index % len(edges)]
            table.add(f"shard{index}", f"srv/{round_index}", Role.SECONDARY,
                      state=ReplicaState.READY)
            if round_index % 3 == 2:
                mutate_randomly(table, rng, ops=4)
            before = all_entries(replica)
            snapshot, delta = table.snapshot_delta()
            applied = replica.apply_delta(delta)
            assert_maps_identical(applied, snapshot)
            assert all_entries(replica) == before  # base unchanged
            touched = {i // _CHUNK for i in delta.indices}
            assert index // _CHUNK in touched
            for new, old in ((snapshot, published), (applied, replica)):
                assert len(new._primaries) == -(-shards // _CHUNK)
                for chunk in range(len(new._primaries)):
                    shared = chunk not in touched
                    assert (new._primaries[chunk]
                            is old._primaries[chunk]) == shared
                    assert (new._secondaries[chunk]
                            is old._secondaries[chunk]) == shared
            published, replica = snapshot, applied


class TestColumnarMap:
    def test_entry_is_constant_time_dict_lookup(self):
        table = make_table(shards=50)
        table.add("shard31", "srv/a", Role.PRIMARY, state=ReplicaState.READY)
        snapshot = table.snapshot()
        entry = snapshot.entry("shard31")
        assert entry.primary == "srv/a"
        assert entry.key_low == 310 and entry.key_high == 320
        # The id -> column-index map lives on the shared key index.
        assert snapshot.key_index.index_of["shard31"] == 31

    def test_key_index_shared_across_versions(self):
        table = make_table()
        first = table.snapshot()
        table.add("shard0", "a", Role.PRIMARY, state=ReplicaState.READY)
        second = table.snapshot()
        assert second.key_index is first.key_index

    def test_unchanged_chunks_shared_across_versions(self):
        table = make_table(shards=2 * _CHUNK + 5)  # three chunks
        first = table.snapshot()
        table.add("shard0", "a", Role.PRIMARY, state=ReplicaState.READY)
        second = table.snapshot()
        assert second._primaries[0] is not first._primaries[0]
        assert second._primaries[1] is first._primaries[1]
        assert second._primaries[2] is first._primaries[2]

    def test_entries_view_matches_spec_order(self):
        table = make_table(shards=5)
        snapshot = table.snapshot()
        assert [e.shard_id for e in all_entries(snapshot)] == [
            s.shard_id for s in table.spec.shards]
        assert snapshot.entry_at(3) is snapshot.entry_at(3)  # memoised

    def test_index_for_key(self):
        shard_map = ShardMap(app="x", version=1, entries=(
            ShardMapEntry("b", 20, 30, None, ()),  # not in key order
            ShardMapEntry("a", 0, 10, None, ()),
        ))
        assert shard_map.entry_at(shard_map.index_for_key(5)).shard_id == "a"
        assert shard_map.entry_at(shard_map.index_for_key(25)).shard_id == "b"
        assert shard_map.index_for_key(15) == -1  # gap
        assert shard_map.index_for_key(-1) == -1  # below
        assert shard_map.index_for_key(30) == -1  # above

    def test_equality_and_hash(self):
        table = make_table()
        table.add("shard0", "a", Role.PRIMARY, state=ReplicaState.READY)
        snapshot = table.snapshot()
        rebuilt = ShardMap(app=snapshot.app, version=snapshot.version,
                           entries=all_entries(snapshot))
        assert rebuilt == snapshot and hash(rebuilt) == hash(snapshot)
        table.relocate(table.replicas_of("shard0")[0].replica_id, "b")
        different = table.snapshot()
        assert different != snapshot

    def test_wire_bytes_delta_much_smaller_than_full(self):
        table = make_table(shards=1000)
        for i in range(1000):
            table.add(f"shard{i}", f"srv/{i % 37}", Role.PRIMARY,
                      state=ReplicaState.READY)
        full, full_delta = table.snapshot_delta()
        replica = table.replicas_of("shard500")[0]
        table.relocate(replica.replica_id, "srv/99")
        _snapshot, delta = table.snapshot_delta()
        assert changed_ids(delta) == ["shard500"]
        assert delta_wire_bytes(delta) < map_wire_bytes(full) / 100
        # header (32) + app (3) + base version (8) + entry framing (24)
        # + "shard500" + "srv/99"
        assert delta_wire_bytes(delta) == 32 + 3 + 8 + 24 + 8 + 6
        # An everything-changed delta carries the whole map plus its
        # base version.
        assert delta_wire_bytes(full_delta) == map_wire_bytes(full) + 8


class TestSubscriptionProtocol:
    def _publish_rounds(self, table, discovery, rounds=3):
        maps = []
        for i in range(rounds):
            table.add(f"shard{i}", f"srv/{i}", Role.PRIMARY,
                      state=ReplicaState.READY)
            snapshot, delta = table.snapshot_delta()
            discovery.publish(snapshot, delta=delta)
            maps.append((snapshot, delta))
        return maps

    def test_delta_aware_subscriber_sees_chained_deltas(self):
        engine = Engine()
        discovery = ServiceDiscovery(engine, base_delay=0.0, jitter=0.0)
        table = make_table(shards=5)
        received = []
        subscription = discovery.subscribe(
            "app", lambda m, d: received.append((m.version, d)), deltas=True)
        self._publish_rounds(table, discovery)
        engine.run()
        assert [v for v, _ in received] == [1, 2, 3]
        assert received[0][1] is None or received[0][1].base_version == 0
        assert received[1][1].base_version == 1  # chained
        assert received[2][1].base_version == 2
        assert subscription.resyncs == 0

    def test_stale_delivery_dropped_for_delta_subscribers(self):
        engine = Engine()
        discovery = ServiceDiscovery(engine, base_delay=0.0, jitter=0.0)
        table = make_table(shards=5)
        received = []
        subscription = discovery.subscribe(
            "app", lambda m, d: received.append(m.version), deltas=True)
        (m1, d1), (m2, d2), _ = self._publish_rounds(table, discovery)
        engine.run()
        subscription.deliver(m1, d1)  # late re-delivery of an old version
        assert received == [1, 2, 3]
        assert subscription.stale_drops == 1

    def test_gap_forces_resync_with_full_map(self):
        engine = Engine()
        discovery = ServiceDiscovery(engine, base_delay=0.0, jitter=0.0)
        table = make_table(shards=5)
        received = []
        subscription = discovery.subscribe(
            "app", lambda m, d: received.append((m.version, d)), deltas=True)
        self._publish_rounds(table, discovery)
        engine.run()
        assert subscription.last_version == 3
        # v4 and v5 happen while this subscriber is partitioned away...
        subscription.active = False
        for i in range(3):
            replica = table.replicas_of(f"shard{i}")[0]
            table.relocate(replica.replica_id, f"srv/x{i}")
            snapshot, delta = table.snapshot_delta()
            if i == 2:
                subscription.active = True  # back for the v6 delivery
            discovery.publish(snapshot, delta=delta)
            engine.run()
        # ...then the v6 delta (base 5) arrived: it cannot chain onto v3.
        assert discovery.latest("app").version == 6
        assert subscription.resyncs == 1
        assert received[-1] == (6, None)  # full-snapshot resync

    def test_broken_chain_publish_degrades_to_full(self):
        engine = Engine()
        discovery = ServiceDiscovery(engine, base_delay=0.0, jitter=0.0)
        table = make_table(shards=5)
        snapshot, delta = table.snapshot_delta()
        discovery.publish(snapshot, delta=delta)
        # A delta not based on the currently published version (e.g. the
        # publisher lost state) must not be forwarded as a delta.
        jump = ShardMap(app="app", version=5,
                        entries=all_entries(snapshot))
        stray = empty_delta("app", 5, 4, jump.key_index)
        discovery.publish(jump, delta=stray)
        assert discovery.delta_publishes == 1  # the first, chained publish
        assert discovery.full_publishes == 1   # the broken-chain one

    def test_mismatched_delta_rejected(self):
        engine = Engine()
        discovery = ServiceDiscovery(engine)
        table = make_table(shards=5)
        snapshot, _ = table.snapshot_delta()
        wrong = empty_delta("app", 99, 0, snapshot.key_index)
        with pytest.raises(ValueError):
            discovery.publish(snapshot, delta=wrong)
        other = empty_delta("other", snapshot.version, 0, snapshot.key_index)
        with pytest.raises(ValueError):
            discovery.publish(snapshot, delta=other)

    def test_plain_subscribers_unaffected_by_deltas(self):
        """Non-delta subscriptions still see every delivery, stale ones
        included — Fig 17 depends on observing late fan-out."""
        engine = Engine()
        discovery = ServiceDiscovery(engine, base_delay=0.0, jitter=0.0)
        table = make_table(shards=5)
        received = []
        discovery.subscribe("app", received.append)
        self._publish_rounds(table, discovery)
        engine.run()
        assert [m.version for m in received] == [1, 2, 3]


class TestTargetedInvalidation:
    def _router(self, engine):
        network = Network(engine, rng=random.Random(1))
        network.register("client", "FRC")
        return ServiceRouter(engine, network, "client")

    def _table(self):
        table = make_table(shards=4)  # keys [0,10) ... [30,40)
        for i in range(4):
            table.add(f"shard{i}", f"srv/{i}", Role.PRIMARY,
                      state=ReplicaState.READY)
        return table

    def test_delta_update_evicts_only_changed_shards(self):
        engine = Engine()
        router = self._router(engine)
        table = self._table()
        snapshot, delta = table.snapshot_delta()
        router.on_map_update(snapshot, delta)
        for key in (5, 15, 25, 35):
            router.route_for(key)
        assert router.route_cache_misses == 4

        table.relocate(table.replicas_of("shard2")[0].replica_id, "srv/9")
        snapshot, delta = table.snapshot_delta()
        router.on_map_update(snapshot, delta)
        assert router.route_evictions == 1  # only shard2's cached key

        hits_before = router.route_cache_hits
        assert router.route_for(5) == ("srv/0", "shard0")   # still cached
        assert router.route_for(35) == ("srv/3", "shard3")  # still cached
        assert router.route_cache_hits == hits_before + 2
        assert router.route_for(25) == ("srv/9", "shard2")  # re-resolved
        assert router.route_cache_misses == 5

    def test_unchained_delta_clears_wholesale(self):
        engine = Engine()
        router = self._router(engine)
        table = self._table()
        snapshot, delta = table.snapshot_delta()
        router.on_map_update(snapshot, delta)
        router.route_for(5)
        # Two publishes, only the second delivered: its delta cannot
        # chain onto what the router has.
        table.relocate(table.replicas_of("shard0")[0].replica_id, "srv/8")
        table.snapshot_delta()
        table.relocate(table.replicas_of("shard1")[0].replica_id, "srv/7")
        snapshot3, delta3 = table.snapshot_delta()
        resyncs_before = router.map_resyncs
        router.on_map_update(snapshot3, delta3)
        assert router.map_resyncs == resyncs_before + 1
        assert router.route_for(5) == ("srv/8", "shard0")  # fresh route

    def test_delta_less_update_clears_wholesale(self):
        engine = Engine()
        router = self._router(engine)
        table = self._table()
        router.on_map_update(table.snapshot())
        router.route_for(5)
        misses = router.route_cache_misses
        table.relocate(table.replicas_of("shard0")[0].replica_id, "srv/8")
        router.on_map_update(table.snapshot())
        assert router.route_for(5) == ("srv/8", "shard0")
        assert router.route_cache_misses == misses + 1

    def test_delta_with_nothing_cached_touches_no_dict(self):
        """A router that holds no route (both reverse indexes empty)
        adopts a delta without walking it."""

        class Unwalked(tuple):
            def __iter__(self):
                raise AssertionError("the delta's indices were walked")

        class Untouched(dict):
            def pop(self, *args):
                raise AssertionError("an empty cache was probed")
            get = __getitem__ = pop

        engine = Engine()
        router = self._router(engine)
        table = self._table()
        router.on_map_update(*table.snapshot_delta())
        table.relocate(table.replicas_of("shard2")[0].replica_id, "srv/9")
        snapshot, delta = table.snapshot_delta()
        router._route_caches = (Untouched(), Untouched())
        router._route_keys_by_shard = (Untouched(), Untouched())
        unwalked = ShardMapDelta(
            delta.app, delta.version, delta.base_version, delta.key_index,
            Unwalked(delta.indices), delta.primaries, delta.secondaries)
        router.on_map_update(snapshot, unwalked)
        assert router.map_resyncs == 1  # only the first delivery
        assert router.route_evictions == 0
        assert router.pick_address(25) == ("srv/9", "shard2")

    def test_one_cold_cache_is_skipped_the_other_evicted(self):
        engine = Engine()
        router = self._router(engine)
        table = self._table()
        router.on_map_update(*table.snapshot_delta())
        router.route_for(25)  # primary-routed cache only
        table.relocate(table.replicas_of("shard2")[0].replica_id, "srv/9")
        router.on_map_update(*table.snapshot_delta())
        assert router.route_evictions == 1
        assert router._route_caches == ({}, {})
        assert router._route_keys_by_shard == ({}, {})

    def test_registration_epoch_still_invalidates(self):
        """The satellite-2 consolidation must keep endpoint-change
        invalidation: replica selection depends on registered regions."""
        engine = Engine()
        network = Network(engine, rng=random.Random(1))
        network.register("client", "FRC")
        router = ServiceRouter(engine, network, "client")
        table = make_table(shards=1, replica_count=2)
        primary = table.add("shard0", "srv/p", Role.PRIMARY,
                            state=ReplicaState.READY)
        table.add("shard0", "srv/s", Role.SECONDARY,
                  state=ReplicaState.READY)
        snapshot, delta = table.snapshot_delta()
        router.on_map_update(snapshot, delta)
        network.register("srv/p", "ODN")
        assert router.route_for(5, prefer_primary=False) == ("srv/p", "shard0")
        # A closer replica registers: the cached route must not survive.
        network.register("srv/s", "FRC")
        assert router.route_for(5, prefer_primary=False) == ("srv/s", "shard0")


# -- the entry-based code the columns replaced, kept as the oracle -----------


def reference_apply(base, app, version, base_version, changed):
    """``ShardMap.apply_delta`` as it was over ``changed`` entries."""
    if app != base.app or base_version != base.version:
        raise ValueError("does not chain")
    index = base.key_index
    entries = all_entries(base)
    for entry in changed:
        i = index.index_of.get(entry.shard_id)
        if (i is None or index.key_lows[i] != entry.key_low
                or index.key_highs[i] != entry.key_high):
            raise ValueError("changes the layout")
        entries[i] = entry
    return ShardMap(app, version, entries=entries)


class EntryEvictingRouter(ServiceRouter):
    """A router evicting by the changed *entries*, shard by shard across
    both caches, as ``_evict_changed`` did before the delta was columns."""

    changed = ()

    def _evict_changed(self, delta):
        caches = self._route_caches
        buckets = self._route_keys_by_shard
        for entry in self.changed:
            shard_id = entry.shard_id
            for cache, bucket in zip(caches, buckets):
                keys = bucket.pop(shard_id, None)
                if keys:
                    self.route_evictions += len(keys)
                    for key in keys:
                        cache.pop(key, None)


def route_or_error(router, key, prefer_primary):
    try:
        return router.route_for(key, prefer_primary)
    except RoutingError as exc:
        return str(exc)


ROUNDS = st.lists(st.tuples(
    st.lists(st.tuples(st.integers(0, 1 << 16), st.booleans()), max_size=10),
    st.integers(0, 1 << 16),            # mutation seed
    st.integers(0, 6),                  # mutations before the publish
    st.sampled_from([True, True, True, False]),  # delivered, or a gap
), min_size=2, max_size=10)


class TestColumnsAgainstEntries:
    @settings(max_examples=60, deadline=None)
    @given(shards=st.sampled_from([6, _CHUNK + 2]), rounds=ROUNDS)
    def test_router_and_replica_match_the_entry_based_code(self, shards,
                                                           rounds):
        """Random route_for / mutate / publish rounds: the column walk
        leaves the same caches, the same eviction count and the same
        applied map as the entry-based code given the old ``changed``."""
        engine = Engine()
        network = Network(engine, rng=random.Random(1))
        network.register("client", "FRC")
        router = ServiceRouter(engine, network, "client")
        oracle = EntryEvictingRouter(engine, network, "client")
        table = make_table(shards=shards)
        index_of = table.snapshot().key_index.index_of
        replica = reference = None
        for picks, seed, ops, delivered in rounds:
            # Route to shards that have replicas — the ones mutations
            # hit — so evictions are the rule, not the exception.
            hosted = sorted({r.shard_id for r in table.all_replicas()})
            for pick, prefer_primary in picks:
                shard = index_of[hosted[pick % len(hosted)]] if hosted else 0
                key = shard * 10 + pick % 10
                assert (route_or_error(router, key, prefer_primary)
                        == route_or_error(oracle, key, prefer_primary))
            mutate_randomly(table, random.Random(seed), ops=ops)
            dirty = sorted(table._dirty)
            base_version = table.last_version
            snapshot, delta = table.snapshot_delta()
            changed = tuple(snapshot.entry(s) for s in dirty)
            assert changed_ids(delta) == dirty
            if replica is None:
                replica = reference = snapshot
            else:
                replica = replica.apply_delta(delta)
                reference = reference_apply(
                    reference, snapshot.app, snapshot.version,
                    base_version, changed)
            assert_maps_identical(replica, snapshot)
            assert_maps_identical(reference, snapshot)
            if delivered:
                oracle.changed = changed
                router.on_map_update(snapshot, delta)
                oracle.on_map_update(snapshot, delta)
            assert router._route_caches == oracle._route_caches
            assert router._route_keys_by_shard == oracle._route_keys_by_shard
            assert router.route_evictions == oracle.route_evictions
            assert router.map_resyncs == oracle.map_resyncs
