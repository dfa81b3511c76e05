"""``Orchestrator._pick_drain_target`` against the pick it replaced.

The old pick sorted every usable server by address, took
``min(candidates, key=rank)`` and, inside ``rank``, copied the
candidate's replica list to take its ``len``.  The new one walks a server
list kept in address order and asks the table for the count.
``sorted_min_pick`` below is the old code, kept as the oracle: over
random server sets (dead, draining, inside an expected-restart window,
hosting the shard), region preferences and one seeded ``random.Random``,
both must return the same address **and leave the RNG in the same
state** — one draw per usable non-hosting candidate, in address order.
The address-ordered list is a cache of ``Orchestrator.servers``; the
last three tests pin how it is refreshed.

Mutation check (each applied alone to ``_pick_drain_target`` /
``_servers_in_address_order``; each fails ``test_same_pick_same_rng``
within its budget and the fixed case named after it):

* draw the tie-break before the usability test (one ``draw()`` per
  server): the RNG ends in another state
  (``test_one_draw_per_candidate_in_address_order``);
* never refresh the cache once it is non-empty
  (``test_a_server_registered_later_is_a_candidate``).
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.topology import build_topology
from repro.coordination.zookeeper import ZooKeeper
from repro.core.allocator import MoveReplica
from repro.core.orchestrator import Orchestrator
from repro.core.shard_map import ReplicaState
from repro.core.spec import AppSpec, ReplicationStrategy, Role, uniform_shards
from repro.discovery.service_discovery import ServiceDiscovery
from repro.harness import SimCluster, deploy_app
from repro.sim.engine import Engine
from repro.sim.network import Network

REGIONS = ["FRC", "PRN", "ODN"]
MACHINES_PER_REGION = 4
NOW = 100.0
#: shard0 has no preferred region; "ATN" has no server at all.
PREFERENCES = {1: "FRC", 2: "PRN", 3: "ODN", 4: "ATN"}
SHARD_COUNT = 6


def sorted_min_pick(orchestrator, replica):
    """``_pick_drain_target`` as it was."""
    self = orchestrator
    shard = self.spec.shard(replica.shard_id)
    existing = {r.address for r in self.table.replicas_of(replica.shard_id)}
    existing_regions = {self.servers[a].machine.region
                        for a in existing if a in self.servers}
    candidates = sorted(
        (record for record in self.servers.values()
         if record.usable(self.engine.now)
         and record.address not in existing),
        key=lambda record: record.address)
    if not candidates:
        return None

    def rank(record):
        return (
            0 if (shard.preferred_region is not None
                  and record.machine.region == shard.preferred_region) else 1,
            0 if record.machine.region not in existing_regions else 1,
            len(self.table.on_address(record.address)),
            self.rng.random(),
        )

    return min(candidates, key=rank).address


class World:
    """An un-started orchestrator whose servers and table the test fills
    by hand, at simulated time ``NOW``."""

    def __init__(self, seed):
        engine = Engine()
        engine.run(until=NOW)
        self.topology = build_topology(REGIONS, MACHINES_PER_REGION)
        spec = AppSpec(
            name="app",
            shards=uniform_shards(SHARD_COUNT, 60, replica_count=3,
                                  preferred_regions=PREFERENCES),
            replication=ReplicationStrategy.SECONDARY_ONLY)
        self.orchestrator = Orchestrator(
            engine, Network(engine, rng=random.Random(1)),
            ZooKeeper(engine), ServiceDiscovery(engine), spec, self.topology,
            rng=random.Random(seed))

    def register(self, server):
        """A server joins the way ZooKeeper announces it."""
        machine_index, alive, draining, down_until = server
        machine = self.topology.machines[machine_index]
        address = f"app/{machine.machine_id}"
        self.orchestrator._server_up(address, {"machine": machine.machine_id})
        record = self.orchestrator.servers[address]
        record.alive = alive
        record.draining = draining
        record.expected_down_until = down_until
        return address

    def host(self, machine_index, shard_index):
        machine = self.topology.machines[machine_index]
        self.orchestrator.table.add(
            f"shard{shard_index}", f"app/{machine.machine_id}",
            Role.SECONDARY, state=ReplicaState.READY)

    def both_picks(self, shard_index):
        """(old pick, new pick), each from the same RNG state; asserts
        they leave the RNG in the same state."""
        orchestrator = self.orchestrator
        replica = SimpleNamespace(shard_id=f"shard{shard_index}")
        before = orchestrator.rng.getstate()
        expected = sorted_min_pick(orchestrator, replica)
        state_after = orchestrator.rng.getstate()
        orchestrator.rng.setstate(before)
        actual = orchestrator._pick_drain_target(replica)
        assert orchestrator.rng.getstate() == state_after
        return expected, actual


_machine = st.integers(0, len(REGIONS) * MACHINES_PER_REGION - 1)
_server = st.tuples(_machine, st.booleans(), st.booleans(),
                    st.sampled_from([0.0, NOW - 1.0, NOW, NOW + 50.0]))
_hosting = st.lists(st.tuples(_machine, st.integers(0, SHARD_COUNT - 1)),
                    max_size=30)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**16),
       servers=st.lists(_server, max_size=10, unique_by=lambda s: s[0]),
       late_servers=st.lists(_server, max_size=3, unique_by=lambda s: s[0]),
       hosting=_hosting,
       shard_indices=st.lists(st.integers(0, SHARD_COUNT - 1), min_size=1,
                              max_size=4))
def test_same_pick_same_rng(seed, servers, late_servers, hosting,
                            shard_indices):
    world = World(seed)
    for server in servers:
        world.register(server)
    # Replicas may sit on addresses the orchestrator has no record of.
    for machine_index, shard_index in hosting:
        world.host(machine_index, shard_index)
    for shard_index in shard_indices:
        expected, actual = world.both_picks(shard_index)
        assert actual == expected
    # Servers that join (or re-join with another state) after the first
    # pick are candidates on the next.
    for server in late_servers:
        world.register(server)
    for shard_index in shard_indices:
        expected, actual = world.both_picks(shard_index)
        assert actual == expected


def test_one_draw_per_candidate_in_address_order():
    world = World(seed=5)
    usable = (True, False, 0.0)
    addresses = [world.register((index,) + usable) for index in (7, 2, 9, 0)]
    world.register((4, False) + usable[1:])       # dead
    world.register((5, True, True, 0.0))          # draining
    world.register((6, True, False, NOW + 1.0))   # restart window open
    world.host(2, 0)                              # hosts shard0 already
    orchestrator = world.orchestrator
    reference = random.Random(5)
    draws = {address: reference.random()
             for address in sorted(addresses) if not address.endswith(
                 world.topology.machines[2].machine_id)}
    expected, actual = world.both_picks(0)
    assert actual == expected
    assert orchestrator.rng.getstate() == reference.getstate()
    # machine 2 is in FRC, so a candidate outside FRC wins on region
    # spread; among those the hosted count ties at 0 and the draw decides.
    outside = {a: d for a, d in draws.items()
               if orchestrator.servers[a].machine.region != "FRC"}
    assert actual == min(outside, key=outside.get)


def test_a_server_registered_later_is_a_candidate():
    world = World(seed=1)
    world.register((0, True, True, 0.0))  # the only server is draining
    assert world.both_picks(0) == (None, None)
    newcomer = world.register((1, True, False, 0.0))
    assert world.both_picks(0) == (newcomer, newcomer)
    # A record that changes state in place is seen without a refresh.
    world.orchestrator.servers[newcomer].alive = False
    assert world.both_picks(0) == (None, None)


def test_removing_a_server_record_is_an_error_not_a_stale_pick():
    world = World(seed=1)
    first = world.register((0, True, False, 0.0))
    world.register((1, True, False, 0.0))
    world.both_picks(0)
    del world.orchestrator.servers[first]
    with pytest.raises(RuntimeError, match="server record was removed"):
        world.orchestrator._pick_drain_target(
            SimpleNamespace(shard_id="shard0"))


def test_an_unheard_server_is_no_target():
    """A server that did not take an emergency create (``unheard``: stopped,
    its session still open) is no drain target, and a planned move to it
    is neither handed out nor run."""
    world = World(seed=1)
    heard = world.register((0, True, False, 0.0))
    silent = world.register((1, True, False, 0.0))
    orchestrator = world.orchestrator
    orchestrator.servers[silent].unheard = True
    assert world.both_picks(0) == (heard, heard)
    world.host(2, 0)
    replica, = orchestrator.table.replicas_of("shard0")
    planned = [(replica, replica.address, silent)]
    assert orchestrator.allocator._hand_out(
        planned, orchestrator.table, orchestrator.servers, NOW) == ([], [])
    move = MoveReplica(shard_id="shard0", replica_id=replica.replica_id,
                       from_address=replica.address, to_address=silent,
                       role=Role.SECONDARY)
    with pytest.raises(StopIteration) as stopped:
        next(orchestrator._execute_one_move(move))
    assert stopped.value.value is False
    # Heard from again, it is a target like any other.
    orchestrator.servers[silent].unheard = False
    assert orchestrator.allocator._hand_out(
        planned, orchestrator.table, orchestrator.servers, NOW) == (
            planned, [])


def test_a_successor_builds_its_own_server_order():
    cluster = SimCluster.build(regions=("FRC",), machines_per_region=6,
                               seed=41)
    spec = AppSpec(name="app", shards=uniform_shards(8, 80))
    app = deploy_app(cluster, spec, {"FRC": 4}, settle=60.0)
    replica = app.orchestrator.table.all_replicas()[0]
    assert app.orchestrator._pick_drain_target(replica) is not None
    app.orchestrator.stop()
    successor = app.orchestrator.successor()
    assert successor._servers_by_address == []
    successor.start()  # _restore_state, then _scan_servers
    restored = successor.table.replicas_of(replica.shard_id)[0]
    before = successor.rng.getstate()
    expected = sorted_min_pick(successor, restored)
    successor.rng.setstate(before)
    assert successor._pick_drain_target(restored) == expected
    assert ([record.address for record in successor._servers_by_address]
            == sorted(successor.servers))
    assert all(record is successor.servers[record.address]
               for record in successor._servers_by_address)
