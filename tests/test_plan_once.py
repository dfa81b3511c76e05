"""The periodic allocator plans once per disturbance.

``Allocator.periodic_plan`` solves, hands out a capped batch of the plan
and keeps the rest.  The next round skips the solve when it can tell what
the solve would do: an input equal to the last solve's gets the same
result back (the search's RNG is seeded from the config), and an input
that is the last round's advanced by the moves handed out then gets the
next batch of the kept plan.  These tests hold the premises: two solves
of one built problem agree, every disturbance the control plane knows of
makes the next round solve, an undisturbed round does not, and each
disturbance test fails on an allocator that skips the comparison.
"""

from contextlib import nullcontext
from dataclasses import replace

import pytest

from repro.chaos import ScenarioRun, get
from repro.cluster.topology import Machine
from repro.core.allocator import Allocator, ServerRecord
from repro.core.shard_map import AssignmentTable, ReplicaState
from repro.core.spec import AppSpec, ReplicationStrategy, Role, uniform_shards
from repro.obs import NO_OBS, use
from repro.solver.api import Rebalancer
from tests.mutants import BY_NAME, Mutant, rewrite

SERVERS = 8
#: The shard the emergency create completes (one of its two replicas is
#: missing at the start).
UNDERSTAFFED = "shard12"


class World:
    """Thirteen two-replica shards piled on two of eight servers, with a
    per-server load report as the orchestrator keeps it."""

    def __init__(self):
        self.spec = AppSpec(
            name="app", shards=uniform_shards(13, 130, replica_count=2),
            replication=ReplicationStrategy.SECONDARY_ONLY,
            lb_metrics=("cpu",))
        self.allocator = Allocator(self.spec)
        self.servers = {}
        for index in range(SERVERS):
            address = f"A/app/{index}"
            self.servers[address] = ServerRecord(
                address=address,
                machine=Machine(machine_id=f"m{index}", region="A",
                                datacenter="A.dc0", rack=f"A.rack{index}",
                                capacity={"cpu": 100.0}))
        self.table = AssignmentTable(self.spec)
        for shard in self.spec.shards:
            for copy in range(2 if shard.shard_id != UNDERSTAFFED else 1):
                self.table.add(shard.shard_id, f"A/app/{copy}",
                               Role.SECONDARY, state=ReplicaState.READY)
        self.now = 0.0

    def load_of(self, replica):
        report = self.servers[replica.address].shard_loads
        return (report.get(replica.shard_id, 10.0),)

    def plan(self):
        self.now += 30.0
        return self.allocator.periodic_plan(self.table, self.servers,
                                            self.now, self.load_of)

    def land(self, moves):
        """Each move as the migration executor makes it: the successor is
        added on the target, then the moved replica is dropped."""
        for move in moves:
            self.table.add(move.shard_id, move.to_address, move.role,
                           state=ReplicaState.READY)
            self.table.drop(move.replica_id)


def _prefer_region(world):
    shards = list(world.spec.shards)
    shards[3] = replace(shards[3], preferred_region="B")
    world.spec.shards = shards


def _poll(world):
    world.servers["A/app/0"].shard_loads = {
        shard.shard_id: 12.0 for shard in world.spec.shards}


DISTURBANCES = {
    "server death": lambda w: setattr(w.servers["A/app/7"], "alive", False),
    "drain start": lambda w: setattr(w.servers["A/app/7"], "draining", True),
    "expected restart": lambda w: setattr(
        w.servers["A/app/7"], "expected_down_until", w.now + 120.0),
    "load poll with a new report": _poll,
    "prefer_region": _prefer_region,
    "emergency create": lambda w: w.table.add(
        UNDERSTAFFED, "A/app/6", Role.SECONDARY, state=ReplicaState.READY),
    "failed move": None,  # one move of the batch does not land
}


@pytest.fixture
def solves(monkeypatch):
    count = [0]
    original = Rebalancer.solve

    def counted(rebalancer, *args, **kwargs):
        count[0] += 1
        return original(rebalancer, *args, **kwargs)

    monkeypatch.setattr(Rebalancer, "solve", counted)
    return count


def second_round(disturbance=""):
    """The first round's plan and the second round's, after the first
    batch landed and ``disturbance`` (a key of DISTURBANCES) happened."""
    world = World()
    first = world.plan()
    # Not vacuous: the caps held moves back for later rounds.
    assert first.moves and world.allocator._tail
    moves = first.moves[:-1] if disturbance == "failed move" else first.moves
    world.land(moves)
    if DISTURBANCES.get(disturbance):
        DISTURBANCES[disturbance](world)
    return first, world.plan()


def test_two_solves_of_one_problem_agree():
    world = World()
    allocator = world.allocator
    results = []
    for _ in range(2):
        problem, _ = allocator.build_problem(world.table, world.servers,
                                             0.0, world.load_of)
        results.append(allocator.attach_goals(problem).solve(
            allocator.search_config))
    assert results[0].changed_replicas
    assert results[0].changed_replicas == results[1].changed_replicas


def test_an_undisturbed_round_continues_the_plan(solves):
    first, second = second_round()
    assert solves[0] == 1
    assert second.continued and second.solve_result is None
    assert second.moves
    planned = {(m.replica_id, m.to_address) for m in first.moves}
    assert not planned & {(m.replica_id, m.to_address) for m in second.moves}


def test_an_unchanged_input_reuses_the_solve(solves):
    world = World()
    first = world.plan()
    again = world.plan()  # no move landed: the input is the solved one
    assert solves[0] == 1
    assert again.solve_result is first.solve_result
    assert again.moves == first.moves


def test_the_kept_plan_runs_out_then_solves_once(solves):
    """Batches until the tail is spent, one solve of the settled table,
    then every round reuses it."""
    world = World()
    plan = world.plan()
    while plan.moves:
        world.land(plan.moves)
        plan = world.plan()
    settled = solves[0]
    assert world.plan().solve_result is plan.solve_result
    assert solves[0] == settled


@pytest.mark.parametrize("disturbance", sorted(DISTURBANCES))
def test_each_disturbance_makes_the_next_round_solve(solves, disturbance):
    _, second = second_round(disturbance)
    assert solves[0] == 2
    assert second.solve_result is not None and not second.continued


SKIPPED_COMPARISONS = {
    "input taken as the solved one": Mutant(
        "solved_input_unchecked", "reuse the last solve whatever the input",
        Allocator, "periodic_plan",
        rewrite("inputs != self._solved[0]", "False")),
    "input taken as the advanced one": Mutant(
        "advanced_input_unchecked",
        "continue a kept plan whatever the input",
        Allocator, "periodic_plan",
        rewrite("inputs == self._advanced()", "True")),
}


@pytest.mark.parametrize("disturbance", sorted(DISTURBANCES))
@pytest.mark.parametrize("variant", sorted(SKIPPED_COMPARISONS))
def test_skipping_the_comparison_misses_the_disturbance(solves, variant,
                                                        disturbance):
    with SKIPPED_COMPARISONS[variant]:
        try:
            second_round(disturbance)
        except IndexError:
            return  # the stale plan names a server or replica that left
    assert solves[0] == 1


def test_ignoring_the_spec_misses_a_preference_change(solves):
    with BY_NAME["kept_plan_ignores_spec"]:
        world = World()
        first = world.plan()
        _prefer_region(world)
        again = world.plan()
    assert solves[0] == 1 and again.solve_result is first.solve_result


@pytest.mark.parametrize("mutant", ["", "kept_tail_skips_revalidation"])
def test_a_kept_move_is_rechecked_before_it_is_handed_out(mutant):
    """A kept move whose replica a failover replaced in place (same
    server, same place in the columns) is dropped from the plan."""
    world = World()
    world.land(world.plan().moves)
    table = world.table
    replica = next(replica for replica, _, _ in world.allocator._tail
                   if table.replicas_view(replica.shard_id)[-1] is replica)
    table.drop(replica.replica_id)
    table.add(replica.shard_id, replica.address, replica.role,
              state=ReplicaState.READY)
    with BY_NAME[mutant] if mutant else nullcontext():
        plan = world.plan()
    assert plan.continued
    handed = replica.replica_id in {move.replica_id for move in plan.moves}
    assert handed == bool(mutant)


def test_a_settled_run_leaves_a_fresh_solve_nothing_to_do():
    """Quality holds: once fig19's ``sm`` run has settled (the region came
    back and the kept plans ran out), a fresh allocator solving the
    settled table plans no move."""
    spec = get("fig19")
    with use(NO_OBS):
        run = ScenarioRun(spec, "sm", 0, NO_OBS)
        run.start()
        run.cluster.run(until=run.t0 + spec.duration)
        run.finish()
    orchestrator = run.app.orchestrator
    # Not vacuous: a kept plan was continued unsolved.
    assert any(violations is None
               for _, violations, _ in orchestrator.rebalance_history)
    fresh = Allocator(orchestrator.spec, orchestrator.config.search_config)
    plan = fresh.periodic_plan(orchestrator.table, orchestrator.servers,
                               run.engine.now, orchestrator.load_of)
    assert plan.solve_result.changed_replicas == []
    assert plan.solve_result.initial_violations == 0
