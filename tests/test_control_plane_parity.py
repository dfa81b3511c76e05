"""Randomized parity: the O(changed) idle control plane against full scans.

``Allocator.emergency_plan`` walks only the shards the assignment table
reports as understaffed, ``Orchestrator._persist_state`` patches its
serialized replica list from the table's dirty replicas instead of
re-walking the table, and ``_write_all_assignments`` rewrites only the
dirty and newly joined addresses, and ``Allocator.build_problem`` writes
the solver's columns without a ``ReplicaInfo`` row per replica.  The
versions they replaced live on here as oracles: over random create /
drop / role / state / relocate sequences the plans, the persisted
payload, every per-address assignment znode and every problem column
must stay identical, step by step.
"""

import json
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

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
from repro.coordination.layout import assignments_root, node_name, state_path
from repro.core.orchestrator import Orchestrator
from repro.core.shard_map import AssignmentTable, ReplicaState
from repro.core.spec import (AppSpec, DrainPolicy, ReplicationStrategy,
                              Role, uniform_shards)
from repro.discovery.service_discovery import ServiceDiscovery
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.solver.problem import PlacementProblem, ReplicaInfo, ServerInfo
from tests.mutants import BY_NAME, Mutant, rewrite

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


def rebuilt_assignments(orchestrator):
    """Every address's assignment znode rebuilt from scratch, as every
    publish used to: one per address of the table or the servers."""
    table = orchestrator.table
    live = (ReplicaState.READY, ReplicaState.PENDING)
    addresses = ({r.address for r in table.all_replicas()}
                 | set(orchestrator.servers))
    return {address: [{"shard_id": r.shard_id, "role": r.role.value}
                      for r in table.on_address(address) if r.state in live]
            for address in addresses}


def written_assignments(orchestrator, addresses):
    root = assignments_root(orchestrator.spec.name)
    zookeeper = orchestrator.zookeeper
    return {address: zookeeper.get(f"{root}/{node_name(address)}")
            for address in addresses}


def assert_persisted_as_rebuilt(orchestrator):
    expected = rebuilt_assignments(orchestrator)
    assert written_assignments(orchestrator, expected) == expected
    assert (orchestrator.zookeeper.get(state_path(orchestrator.spec.name))
            == rebuilt_payload(orchestrator.table))


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
    # Servers join only as dead records, so the control loops plan
    # nothing and every table mutation below is this test's own.  Some
    # joiners host replicas of the table, one never hosts anything.
    orchestrator.start()
    table = orchestrator.table
    addresses = sorted(make_servers())
    joiners = [addresses[1], addresses[4], "Z/app/0", addresses[7]]
    machines = orchestrator.topology.machines
    engine.run(until=1.0)
    assert_persisted_as_rebuilt(orchestrator)
    publishes = orchestrator.publishes
    for step in range(120):
        for _ in range(rng.choice((1, 1, 2, 5))):
            mutate_table(rng, spec, table, addresses)
        if step % 30 == 10:
            address = joiners[step // 30]
            orchestrator._server_up(
                address, {"machine": machines[step // 30].machine_id})
            orchestrator.servers[address].alive = False
        orchestrator._mark_dirty()
        engine.run(until=engine.now + 1.0)
        assert_persisted_as_rebuilt(orchestrator)
    assert orchestrator.publishes == publishes + 120
    assert len(orchestrator.servers) == len(joiners)


#: Writes one publish after a table change on eight addresses; prints the
#: ZooKeeper paths the publish wrote, in order.
PUBLISH_PROBE = r"""
import json
import random

from repro.cluster.topology import build_topology
from repro.coordination.zookeeper import ZooKeeper
from repro.core.orchestrator import Orchestrator
from repro.core.spec import AppSpec, ReplicationStrategy, Role, uniform_shards
from repro.discovery.service_discovery import ServiceDiscovery
from repro.sim.engine import Engine
from repro.sim.network import Network

engine = Engine()
zookeeper = ZooKeeper(engine)
spec = AppSpec(name="app", shards=uniform_shards(8, 80, replica_count=1),
               replication=ReplicationStrategy.PRIMARY_ONLY)
orchestrator = Orchestrator(
    engine=engine, network=Network(engine, rng=random.Random(1)),
    zookeeper=zookeeper,
    discovery=ServiceDiscovery(engine, rng=random.Random(2)), spec=spec,
    topology=build_topology(["A", "B"], machines_per_region=2))
orchestrator.start()
engine.run(until=1.0)
for index, shard in enumerate(spec.shards):
    orchestrator.table.add(shard.shard_id, f"host-{index * 7919 % 97}",
                           Role.PRIMARY)
written = []
for name in ("create", "set"):
    def logged(path, *args, _write=getattr(zookeeper, name), **kwargs):
        written.append(path)
        return _write(path, *args, **kwargs)
    setattr(zookeeper, name, logged)
orchestrator._mark_dirty()
engine.run(until=2.0)
print(json.dumps(written))
"""


def _publish_writes(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=str(pathlib.Path(__file__).resolve().parent.parent
                              / "src"))
    done = subprocess.run([sys.executable, "-c", PUBLISH_PROBE], env=env,
                          text=True, capture_output=True, check=True)
    return json.loads(done.stdout)


def test_publish_write_order_is_free_of_the_hash_seed():
    first, *others = [_publish_writes(seed) for seed in ("0", "1", "7")]
    # Not vacuous: eight assignment znodes and the state node.
    assert len(first) == 9
    assert len({path for path in first if "/assignments/" in path}) == 8
    for other in others:
        assert other == first


# -- the periodic solve's columnar build ------------------------------------------

def rows_build_problem(allocator, table, servers, now, load_of):
    """``Allocator.build_problem`` as it was before the columnar build:
    one :class:`ReplicaInfo` row per kept replica, then the public
    :class:`PlacementProblem` constructor, placed replica by replica in
    index order."""
    spec = allocator.spec
    metrics = list(spec.lb_metrics)
    candidate_servers = [record for record in servers.values()
                         if record.alive and now >= record.expected_down_until]
    if not candidate_servers:
        raise RuntimeError("no alive servers to place on")
    server_infos = []
    address_to_index = {}
    for index, record in enumerate(sorted(candidate_servers,
                                          key=lambda r: r.address)):
        machine = record.machine
        server_infos.append(ServerInfo(
            record.address, machine.region,
            tuple(machine.capacity.get(metric, 0.0) for metric in metrics),
            machine.datacenter, machine.rack, record.draining))
        address_to_index[record.address] = index
    replica_infos = []
    index_to_replica = []
    initial_assignment = []
    draining = {record.address for record in candidate_servers
                if record.draining}
    for shard in spec.shards:
        for replica in table.replicas_view(shard.shard_id):
            if replica.state not in (ReplicaState.READY, ReplicaState.PENDING):
                continue
            server_index = address_to_index.get(replica.address)
            if server_index is None:
                continue
            pinned = (replica.address in draining
                      and not spec.drain_policy.drains(replica.role))
            index_to_replica.append(replica)
            replica_infos.append(ReplicaInfo(
                replica.replica_id, shard.shard_id, load_of(replica),
                shard.preferred_region, 1.0, pinned))
            initial_assignment.append(server_index)
    if not replica_infos:
        raise RuntimeError("no movable replicas")
    problem = PlacementProblem(metrics, server_infos, replica_infos)
    problem._move_all(initial_assignment)
    return problem, index_to_replica


#: Everything the solver reads off a problem, per server or per replica.
PROBLEM_COLUMNS = (
    "metrics", "servers", "capacity", "loads", "shard_of", "shard_names",
    "replica_pinned", "replica_pref_region", "replica_pref_weight",
    "region_names", "server_region", "dc_names", "server_dc", "rack_names",
    "server_rack", "server_draining", "assignment", "usage")


def problem_columns(problem):
    columns = {name: getattr(problem, name) for name in PROBLEM_COLUMNS}
    # Set iteration order is the solver's tie rule.
    columns["replicas_on"] = [list(s) for s in problem.replicas_on]
    return columns


def built(build, *args):
    try:
        problem, index_to_replica = build(*args)
    except RuntimeError as error:
        return str(error)
    return problem_columns(problem), index_to_replica


def two_metric_load(replica):
    draw = random.Random(replica.replica_id)
    return (draw.uniform(0.0, 10.0), draw.uniform(0.0, 10.0))


DRAIN_POLICIES = [DrainPolicy(primaries, secondaries)
                  for primaries in (True, False)
                  for secondaries in (True, False)]


def build_sequence(replication, replica_count, seed):
    """Yield ``(allocator, table, servers, now)`` after each random step
    from a fully staffed table: create / drop / role / state / relocate
    on the table, alive / draining / expected-restart flips on the
    servers."""
    rng = random.Random(3000 + seed)
    spec = make_spec(replication, replica_count)
    spec.lb_metrics = ("cpu", "mem")
    spec.drain_policy = DRAIN_POLICIES[seed % len(DRAIN_POLICIES)]
    servers = make_servers()
    for record in servers.values():
        record.machine.capacity.update(cpu=40.0, mem=60.0)
    addresses = sorted(servers)
    table = AssignmentTable(spec)
    for index, shard in enumerate(spec.shards):
        for copy in range(shard.replica_count):
            role = (Role.PRIMARY if copy == 0 and spec.has_primaries()
                    else Role.SECONDARY)
            table.add(shard.shard_id, addresses[(index + 4 * copy) % 9], role,
                      state=ReplicaState.READY)
    allocator = Allocator(spec)
    now = 0.0
    for _step in range(120):
        if rng.random() < 0.2:
            mutate_servers(rng, servers, now)
        else:
            mutate_table(rng, spec, table, addresses)
        now += 1.0
        yield allocator, table, servers, now


def first_difference(replication, replica_count, seed):
    """The first step at which the columnar build and the row build
    differ, or None; with what the sequence put in play."""
    seen = Counter()
    for allocator, table, servers, now in build_sequence(
            replication, replica_count, seed):
        args = (table, servers, now, two_metric_load)
        columnar = built(allocator.build_problem, *args)
        if columnar != built(rows_build_problem, allocator, *args):
            return now, seen
        if isinstance(columnar, str):
            continue
        columns, _ = columnar
        seen["built"] += 1
        seen["pinned"] += any(columns["replica_pinned"])
        seen["preferred"] += any(columns["replica_pref_weight"])
        seen["shared server"] += any(len(on) > 1
                                     for on in columns["replicas_on"])
        seen["siblings kept"] += (len(set(columns["shard_of"]))
                                  < len(columns["shard_of"]))
    return None, seen


@pytest.mark.parametrize("replication,replica_count", SPECS)
@pytest.mark.parametrize("seed", range(8))
def test_columnar_build_matches_replica_rows(replication, replica_count,
                                             seed):
    differs_at, seen = first_difference(replication, replica_count, seed)
    assert differs_at is None
    # Not vacuous: problems were built with every column in play.
    assert seen["built"] >= 40
    assert seen["preferred"] and seen["shared server"] and seen[
        "siblings kept"]
    policy = DRAIN_POLICIES[seed % len(DRAIN_POLICIES)]
    if not (policy.drain_primaries and policy.drain_secondaries):
        assert seen["pinned"]


WRONG_BUILDS = {
    "reversed walk": BY_NAME["allocator_tie_order"],
    "pinned from the wrong role": Mutant(
        "pinned_wrong_role", "pin the replicas whose role drains",
        Allocator, "build_problem",
        rewrite("if not self.spec.drain_policy.drains(role)",
                "if self.spec.drain_policy.drains(role)")),
}


@pytest.mark.parametrize("wrong", sorted(WRONG_BUILDS))
def test_columnar_parity_catches_a_wrong_build(wrong):
    with WRONG_BUILDS[wrong]:
        assert any(first_difference(replication, replica_count, 0)[0]
                   for replication, replica_count in SPECS)
