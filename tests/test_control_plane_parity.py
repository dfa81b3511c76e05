"""Randomized parity: the O(changed) idle control plane against full scans.

``Allocator.emergency_plan`` walks only the shards the assignment table
reports as understaffed, and ``Orchestrator._persist_state`` patches its
serialized replica list instead of re-walking the table.  The full-scan
versions they replaced live on here as oracles: over random
create / drop / role / state / relocate sequences the plans and the
persisted payload must stay identical, step by step.
"""

import random

import pytest

from repro.baselines.pinned import PinnedAllocator, modulo_placement
from repro.cluster.topology import Machine, build_topology
from repro.coordination.zookeeper import ZooKeeper
from repro.core.allocator import (
    AllocationPlan,
    Allocator,
    CreateReplica,
    PromoteReplica,
    ServerRecord,
)
from repro.coordination.layout import state_path
from repro.core.orchestrator import Orchestrator
from repro.core.shard_map import AssignmentTable, ReplicaState, Role
from repro.core.spec import AppSpec, ReplicationStrategy, uniform_shards
from repro.discovery.service_discovery import ServiceDiscovery
from repro.sim.engine import Engine
from repro.sim.network import Network

REGIONS = ("A", "B", "C")
STATES = list(ReplicaState)


def full_scan_emergency_plan(spec, table, servers, now):
    """``Allocator.emergency_plan`` as it was before the understaffed
    index: every shard of the spec is examined on every call."""
    plan = AllocationPlan()
    usable = [record for record in servers.values() if record.usable(now)]
    if not usable:
        return plan
    target_order = sorted(
        usable, key=lambda r: (len(table.on_address(r.address)), r.address))
    placements_this_plan = {r.address: 0 for r in usable}
    planned_addresses = {}
    planned_regions = {}
    cursor = 0

    def next_target(shard_id, preferred_region):
        nonlocal cursor
        existing_addresses = {r.address for r in table.replicas_of(shard_id)}
        existing_addresses |= planned_addresses.get(shard_id, set())
        existing_regions = {servers[a].machine.region
                            for a in existing_addresses if a in servers}
        existing_regions |= planned_regions.get(shard_id, set())
        best = None
        best_key = None
        pref_needed = (preferred_region is not None
                       and preferred_region not in existing_regions)
        for offset in range(len(target_order)):
            record = target_order[(cursor + offset) % len(target_order)]
            if record.address in existing_addresses:
                continue
            key = (
                0 if (pref_needed
                      and record.machine.region == preferred_region) else 1,
                0 if record.machine.region not in existing_regions else 1,
                placements_this_plan[record.address],
            )
            if best_key is None or key < best_key:
                best_key = key
                best = record
        if best is None:
            return None
        placements_this_plan[best.address] += 1
        planned_addresses.setdefault(shard_id, set()).add(best.address)
        planned_regions.setdefault(shard_id, set()).add(best.machine.region)
        cursor += 1
        return best.address

    for shard in spec.shards:
        live = [r for r in table.replicas_view(shard.shard_id)
                if r.state is not ReplicaState.DROPPED]
        missing = shard.replica_count - len(live)
        for _ in range(max(0, missing)):
            address = next_target(shard.shard_id, shard.preferred_region)
            if address is None:
                break
            plan.creates.append(CreateReplica(
                shard_id=shard.shard_id, address=address,
                role=Role.SECONDARY))
        if spec.has_primaries():
            has_primary = any(r.role is Role.PRIMARY for r in live)
            if not has_primary:
                ready_secondary = next(
                    (r for r in live if r.state is ReplicaState.READY), None)
                if ready_secondary is not None:
                    plan.promotes.append(PromoteReplica(
                        shard_id=shard.shard_id,
                        replica_id=ready_secondary.replica_id))
                elif not plan.creates or all(
                        c.shard_id != shard.shard_id for c in plan.creates):
                    address = next_target(shard.shard_id,
                                          shard.preferred_region)
                    if address is not None:
                        plan.creates.append(CreateReplica(
                            shard_id=shard.shard_id, address=address,
                            role=Role.PRIMARY))
    if spec.has_primaries():
        primaries_planned = set()
        for index, create in enumerate(plan.creates):
            shard_id = create.shard_id
            live = [r for r in table.replicas_of(shard_id)
                    if r.state is not ReplicaState.DROPPED]
            has_primary = any(r.role is Role.PRIMARY for r in live)
            promote_planned = any(p.shard_id == shard_id
                                  for p in plan.promotes)
            if (not has_primary and not promote_planned
                    and shard_id not in primaries_planned):
                plan.creates[index] = CreateReplica(
                    shard_id=shard_id, address=create.address,
                    role=Role.PRIMARY)
                primaries_planned.add(shard_id)
    return plan


def full_scan_pinned_plan(spec, placement, table, servers, now):
    """``PinnedAllocator.emergency_plan`` with every shard's pin computed."""
    plan = full_scan_emergency_plan(spec, table, servers, now)
    addresses = sorted(r.address for r in servers.values() if r.usable(now))
    if not addresses:
        return plan
    pins = {shard.shard_id: placement(i, shard.shard_id, addresses)
            for i, shard in enumerate(spec.shards)}
    plan.creates = [CreateReplica(shard_id=c.shard_id,
                                  address=pins[c.shard_id], role=c.role)
                    for c in plan.creates]
    return plan


def make_spec(replication, replica_count, shards=12):
    return AppSpec(
        name="app",
        shards=uniform_shards(shards, shards * 10,
                              replica_count=replica_count,
                              preferred_regions={0: "A", 5: "C"}),
        replication=replication)


def make_servers(per_region=3):
    records = {}
    for region in REGIONS:
        for index in range(per_region):
            address = f"{region}/app/{index}"
            records[address] = ServerRecord(
                address=address,
                machine=Machine(machine_id=f"{region}-m{index}",
                                region=region, datacenter=f"{region}.dc0",
                                rack=f"{region}.rack{index}",
                                capacity={"shard_count": 100.0}))
    return records


def mutate_table(rng, spec, table, addresses):
    """One random mutation through the table's public mutators."""
    replicas = table.all_replicas()
    op = rng.choice(("add", "add", "drop", "role", "state", "relocate"))
    if op == "add" or not replicas:
        shard_id = rng.choice(spec.shards).shard_id
        role = rng.choice(list(Role))
        if role is Role.PRIMARY and table.primary_of(shard_id) is not None:
            role = Role.SECONDARY
        table.add(shard_id, rng.choice(addresses), role,
                  state=rng.choice(STATES))
        return
    replica = rng.choice(replicas)
    if op == "drop":
        table.drop(replica.replica_id)
    elif op == "role":
        role = rng.choice(list(Role))
        current = table.primary_of(replica.shard_id)
        if (role is Role.PRIMARY and current is not None
                and current is not replica):
            role = Role.SECONDARY
        table.set_role(replica.replica_id, role)
    elif op == "state":
        table.set_state(replica.replica_id, rng.choice(STATES))
    else:
        table.relocate(replica.replica_id, rng.choice(addresses))


def mutate_servers(rng, servers, now):
    record = servers[rng.choice(sorted(servers))]
    flip = rng.choice(("alive", "draining", "expected"))
    if flip == "alive":
        record.alive = not record.alive
    elif flip == "draining":
        record.draining = not record.draining
    else:
        record.expected_down_until = now + rng.choice((0.0, 50.0))


SPECS = [
    (ReplicationStrategy.PRIMARY_ONLY, 1),
    (ReplicationStrategy.PRIMARY_SECONDARY, 3),
    (ReplicationStrategy.SECONDARY_ONLY, 2),
]


@pytest.mark.parametrize("replication,replica_count", SPECS)
@pytest.mark.parametrize("seed", range(8))
def test_indexed_emergency_plan_matches_full_scan(replication, replica_count,
                                                  seed):
    rng = random.Random(seed)
    spec = make_spec(replication, replica_count)
    servers = make_servers()
    addresses = sorted(servers)
    table = AssignmentTable(spec)
    allocator = Allocator(spec)
    now = 0.0
    nonempty = 0
    for _step in range(150):
        if rng.random() < 0.15:
            mutate_servers(rng, servers, now)
        else:
            mutate_table(rng, spec, table, addresses)
        now += 1.0
        plan = allocator.emergency_plan(table, servers, now)
        oracle = full_scan_emergency_plan(spec, table, servers, now)
        assert plan.creates == oracle.creates
        assert plan.promotes == oracle.promotes
        assert plan.moves == oracle.moves == []
        nonempty += not plan.empty
        if rng.random() < 0.3:
            # Carry the plan out, so sequences also reach fully staffed
            # tables where the index is empty and the scan finds nothing.
            for create in plan.creates:
                if create.role is Role.PRIMARY and table.primary_of(
                        create.shard_id) is not None:
                    continue
                table.add(create.shard_id, create.address, create.role,
                          state=ReplicaState.READY)
            for promote in plan.promotes:
                if table.primary_of(promote.shard_id) is None:
                    table.set_role(promote.replica_id, Role.PRIMARY)
    assert nonempty, "sequence never produced a plan: the test is vacuous"


@pytest.mark.parametrize("seed", range(8))
def test_pinned_emergency_plan_matches_full_scan(seed):
    rng = random.Random(1000 + seed)
    spec = make_spec(ReplicationStrategy.PRIMARY_ONLY, 1)
    servers = make_servers()
    addresses = sorted(servers)
    table = AssignmentTable(spec)
    allocator = PinnedAllocator(spec, modulo_placement)
    now = 0.0
    for _step in range(150):
        if rng.random() < 0.15:
            mutate_servers(rng, servers, now)
        else:
            mutate_table(rng, spec, table, addresses)
        now += 1.0
        plan = allocator.emergency_plan(table, servers, now)
        oracle = full_scan_pinned_plan(spec, modulo_placement, table,
                                       servers, now)
        assert plan.creates == oracle.creates
        assert plan.promotes == oracle.promotes


def test_steady_state_emergency_plan_examines_no_shard():
    spec = make_spec(ReplicationStrategy.PRIMARY_SECONDARY, 2)
    servers = make_servers()
    addresses = sorted(servers)
    table = AssignmentTable(spec)
    assert [s.shard_id for s in table.understaffed_shards()] == [
        s.shard_id for s in spec.shards]
    for i, shard in enumerate(spec.shards):
        table.add(shard.shard_id, addresses[i % 9], Role.PRIMARY)
        table.add(shard.shard_id, addresses[(i + 1) % 9], Role.SECONDARY)
    assert table.understaffed_shards() == []
    victim = table.replicas_of(spec.shards[7].shard_id)[0]
    table.relocate(victim.replica_id, addresses[5])
    assert table.understaffed_shards() == []
    table.drop(victim.replica_id)
    assert table.understaffed_shards() == [spec.shards[7]]


# -- persisted orchestrator state ------------------------------------------------

def rebuilt_payload(table):
    """The persisted state rebuilt from scratch, as every publish used to."""
    return {"version": table.last_version,
            "replicas": [{"replica_id": r.replica_id, "shard_id": r.shard_id,
                          "address": r.address, "role": r.role.value,
                          "state": r.state.value}
                         for r in table.all_replicas()]}


@pytest.mark.parametrize("replication,replica_count", SPECS)
@pytest.mark.parametrize("seed", range(4))
def test_incremental_persist_state_matches_rebuild(replication,
                                                   replica_count, seed):
    rng = random.Random(2000 + seed)
    spec = make_spec(replication, replica_count)
    engine = Engine()
    zookeeper = ZooKeeper(engine)
    orchestrator = Orchestrator(
        engine=engine, network=Network(engine, rng=random.Random(1)),
        zookeeper=zookeeper,
        discovery=ServiceDiscovery(engine, rng=random.Random(2)),
        spec=spec,
        topology=build_topology(list(REGIONS), machines_per_region=3))
    # No servers ever join, so the control loops plan nothing and every
    # table mutation below is this test's own.
    orchestrator.start()
    table = orchestrator.table
    addresses = sorted(make_servers())
    path = state_path(spec.name)
    engine.run(until=1.0)
    assert zookeeper.get(path) == rebuilt_payload(table)
    publishes = orchestrator.publishes
    for _step in range(120):
        for _ in range(rng.choice((1, 1, 2, 5))):
            mutate_table(rng, spec, table, addresses)
        orchestrator._mark_dirty()
        engine.run(until=engine.now + 1.0)
        assert zookeeper.get(path) == rebuilt_payload(table)
    assert orchestrator.publishes == publishes + 120
