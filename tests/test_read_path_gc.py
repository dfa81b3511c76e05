"""The read path leaves nothing per key for the garbage collector.

A client routes over maps of 10^5-10^6 shards for the whole run, so
whatever its caches keep per routed key, or a map keeps per column read,
lives as long as the run and is scanned by every full collection.  These
tests hold the router's caches and ``ShardMap.entry_at`` to keeping no
GC-tracked object per key or per column: ints, strings and (after one
collection) tuples of strings are all they may hold.
"""

import gc
import random
import types

from repro.core.shard_map import AssignmentTable, ReplicaState, Role
from repro.core.spec import AppSpec, ReplicationStrategy, uniform_shards
from repro.discovery.router import ServiceRouter
from repro.sim.engine import Engine
from repro.sim.network import Network


def table_of(shards: int) -> AssignmentTable:
    spec = AppSpec(name="app", shards=uniform_shards(
        shards, key_space=shards * 16, replica_count=1),
        replication=ReplicationStrategy.PRIMARY_SECONDARY)
    table = AssignmentTable(spec)
    for i, shard in enumerate(spec.shards):
        table.add(shard.shard_id, f"srv/{i % 50}", Role.PRIMARY,
                  state=ReplicaState.READY)
    return table


def tracked_reachable(*roots) -> int:
    """GC-tracked objects reachable from ``roots`` (the roots included),
    after a full collection; types, modules and functions are shared
    program state and are not walked."""
    gc.collect()
    seen = set()
    stack = list(roots)
    count = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType,
                                               types.FunctionType)):
            continue
        seen.add(id(obj))
        if gc.is_tracked(obj):
            count += 1
        stack.extend(gc.get_referents(obj))
    return count


def test_router_caches_keep_no_tracked_object_per_key():
    engine = Engine()
    network = Network(engine, rng=random.Random(1))
    network.register("client", "FRC")
    router = ServiceRouter(engine, network, "client")
    router.on_map_update(table_of(1_000).snapshot())
    keys = random.Random(7).sample(range(16_000), 10_000)

    def caches():
        # Every container the router owns outright: its caches, not the
        # engine, network or map it shares with others.
        return tracked_reachable(*(value for value in vars(router).values()
                                   if isinstance(value, (dict, tuple))))

    for key in keys[:100]:
        router.route_for(key)
    after_100 = caches()
    for key in keys:
        router.route_for(key)
        router.route_for(key, prefer_primary=False)
    assert caches() == after_100
    assert router.route_cache_misses == 2 * 1_000  # one per shard and mode


def test_entry_at_keeps_nothing_it_built():
    shard_map = table_of(10_000).snapshot()
    before = tracked_reachable(shard_map)
    entries = [shard_map.entry_at(i) for i in range(len(shard_map))]
    assert [e.shard_id for e in entries[:2]] == ["shard0", "shard1"]
    assert tracked_reachable(shard_map) == before
