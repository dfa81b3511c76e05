"""Unit tests for the placement-problem model."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.solver.problem import PlacementProblem, ReplicaInfo, ServerInfo


def small_problem(num_servers=4, num_replicas=8, metrics=("cpu",),
                  regions=("A", "B")):
    servers = [
        ServerInfo(name=f"s{i}", region=regions[i % len(regions)],
                   datacenter=f"dc{i % 2}", rack=f"r{i}",
                   capacity=tuple(100.0 for _ in metrics))
        for i in range(num_servers)
    ]
    replicas = [
        ReplicaInfo(name=f"r{i}", shard=f"sh{i // 2}",
                    load=tuple(10.0 for _ in metrics))
        for i in range(num_replicas)
    ]
    return PlacementProblem(list(metrics), servers, replicas)


class TestConstruction:
    def test_requires_metrics_and_servers(self):
        with pytest.raises(ValueError):
            PlacementProblem([], [ServerInfo("s", "A", (1.0,))], [])
        with pytest.raises(ValueError):
            PlacementProblem(["cpu"], [], [])

    def test_capacity_length_checked(self):
        with pytest.raises(ValueError):
            PlacementProblem(["cpu", "mem"],
                             [ServerInfo("s", "A", (1.0,))], [])

    def test_load_length_checked(self):
        with pytest.raises(ValueError):
            PlacementProblem(["cpu"], [ServerInfo("s", "A", (1.0,))],
                             [ReplicaInfo("r", "sh", (1.0, 2.0))])

    def test_unassigned_by_default(self):
        problem = small_problem()
        assert all(a == -1 for a in problem.assignment)
        assert all(u == [0.0] for u in problem.usage)

    def test_initial_assignment_builds_usage(self):
        problem = small_problem(num_servers=2, num_replicas=4)
        problem2 = PlacementProblem(
            problem.metrics,
            problem.servers,
            problem.replicas,
            assignment=[0, 0, 1, 1],
        )
        assert problem2.usage[0][0] == 20.0
        assert problem2.usage[1][0] == 20.0
        assert problem2.replicas_on[0] == {0, 1}

    def test_bad_assignment_rejected(self):
        problem = small_problem(num_servers=2, num_replicas=2)
        with pytest.raises(ValueError):
            PlacementProblem(problem.metrics, problem.servers,
                             problem.replicas, assignment=[0, 99])
        with pytest.raises(ValueError):
            PlacementProblem(problem.metrics, problem.servers,
                             problem.replicas, assignment=[0])

    def test_records_are_lean_and_immutable(self):
        """A problem is built from one record per replica, so a record
        carries no ``__dict__`` and still cannot be edited in place."""
        for record in (ServerInfo("s", "A", (1.0,)),
                       ReplicaInfo("r", "sh", (1.0,))):
            assert not hasattr(record, "__dict__")
            with pytest.raises(AttributeError):
                record.name = "other"
            with pytest.raises(AttributeError):
                record.extra = 1

    def test_unknown_preferred_region_allowed_if_declared(self):
        """A preference for a region with no live servers is representable
        (whole-region outage)."""
        servers = [ServerInfo("s0", "A", (100.0,))]
        replicas = [ReplicaInfo("r0", "sh0", (1.0,), preferred_region="B")]
        problem = PlacementProblem(["cpu"], servers, replicas)
        assert "B" in problem.region_names


def six_pass_columns(num_metrics, servers, replicas):
    """The per-replica columns as ``PlacementProblem.__init__`` built them
    before it filled them in one pass — the oracle for that pass."""
    for replica in replicas:
        if len(replica.load) != num_metrics:
            raise ValueError(f"replica {replica.name}: load has "
                             f"{len(replica.load)} entries")
    loads = [r.load for r in replicas]
    region_names = {s.region for s in servers}
    region_names.update(r.preferred_region for r in replicas
                        if r.preferred_region is not None)
    region_names = sorted(region_names)
    region_index = {name: i for i, name in enumerate(region_names)}
    shard_of, shard_names, shard_index = [], [], {}
    for replica in replicas:
        if replica.shard not in shard_index:
            shard_index[replica.shard] = len(shard_names)
            shard_names.append(replica.shard)
        shard_of.append(shard_index[replica.shard])
    pinned = [r.pinned for r in replicas]
    pref_region, pref_weight = [], []
    for replica in replicas:
        if replica.preferred_region is None:
            pref_region.append(-1)
            pref_weight.append(0.0)
        else:
            pref_region.append(region_index[replica.preferred_region])
            pref_weight.append(replica.preference_weight)
    return {"loads": loads, "region_names": region_names,
            "server_region": [region_index[s.region] for s in servers],
            "shard_of": shard_of, "shard_names": shard_names,
            "replica_pinned": pinned, "replica_pref_region": pref_region,
            "replica_pref_weight": pref_weight}


_replica = st.tuples(
    st.integers(0, 5),                                  # shard
    st.lists(st.floats(0.0, 9.0), min_size=1, max_size=3),
    st.sampled_from([None, "A", "B", "Z"]),             # "Z": no server
    st.floats(0.0, 4.0), st.booleans())


class TestColumnsAgainstTheSixPassBuild:
    @settings(max_examples=200, deadline=None)
    @given(num_metrics=st.integers(1, 3),
           rows=st.lists(_replica, max_size=12))
    def test_same_columns_or_same_refusal(self, num_metrics, rows):
        metrics = [f"m{i}" for i in range(num_metrics)]
        servers = [ServerInfo(f"s{i}", region, (10.0,) * num_metrics)
                   for i, region in enumerate(["B", "A", "C"])]
        replicas = [ReplicaInfo(f"r{i}", f"sh{shard}", tuple(load),
                                region, weight, pinned)
                    for i, (shard, load, region, weight, pinned)
                    in enumerate(rows)]
        try:
            expected = six_pass_columns(num_metrics, servers, replicas)
        except ValueError:
            with pytest.raises(ValueError, match="load has"):
                PlacementProblem(metrics, servers, replicas)
            return
        problem = PlacementProblem(metrics, servers, replicas)
        for name, column in expected.items():
            assert getattr(problem, name) == column, name


def per_replica_initial_fill(problem, assignment):
    """How ``__init__`` filled usage from an initial assignment before it
    shared ``random_assignment``'s loop: one ``_add_usage`` a replica."""
    problem.assignment = list(assignment)
    for replica_idx, server_idx in enumerate(assignment):
        if server_idx != -1:
            problem._add_usage(replica_idx, server_idx)


def move_by_move_random_assignment(problem, rng):
    """``random_assignment`` as it was: draw, ``move``, draw, ``move``."""
    num_servers = len(problem.servers)
    for replica_idx in range(len(problem.replicas)):
        problem.move(replica_idx, rng.randrange(num_servers))


def placement_state(problem):
    return (problem.assignment, problem.usage,
            [list(on) for on in problem.replicas_on], problem.version)


@st.composite
def _loads(draw):
    """Up to 40 replicas, every count as likely: ``replicas_on`` order
    only shows once indices collide in a set's table."""
    count = draw(st.integers(1, 40))
    return draw(st.lists(
        st.lists(st.floats(0.0, 9.0), min_size=2, max_size=2),
        min_size=count, max_size=count))


def _problem(loads, num_servers, assignment=None):
    servers = [ServerInfo(f"s{i}", "A", (10.0, 10.0))
               for i in range(num_servers)]
    replicas = [ReplicaInfo(f"r{i}", f"sh{i}", tuple(load))
                for i, load in enumerate(loads)]
    return PlacementProblem(["cpu", "mem"], servers, replicas, assignment)


class TestBulkFillAgainstMoveByMove:
    """Set iteration order is part of the state: the solver breaks ties
    by it, so ``list(replicas_on[s])`` is compared, not the set."""

    @settings(max_examples=200, deadline=None)
    @given(loads=_loads(), num_servers=st.integers(1, 6), data=st.data())
    def test_initial_assignment(self, loads, num_servers, data):
        assignment = data.draw(st.lists(
            st.integers(-1, num_servers - 1),
            min_size=len(loads), max_size=len(loads)))
        oracle = _problem(loads, num_servers)
        per_replica_initial_fill(oracle, assignment)
        problem = _problem(loads, num_servers, assignment)
        assert placement_state(problem) == placement_state(oracle)

    @settings(max_examples=200, deadline=None)
    @given(loads=_loads(), num_servers=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32), rounds=st.integers(1, 3))
    def test_random_assignment(self, loads, num_servers, seed, rounds):
        """Also from an assigned state (``rounds`` > 1), where a draw can
        repeat a replica's server and move nothing."""
        oracle, problem = _problem(loads, num_servers), _problem(loads, num_servers)
        oracle_rng, rng = random.Random(seed), random.Random(seed)
        for _ in range(rounds):
            move_by_move_random_assignment(oracle, oracle_rng)
            problem.random_assignment(rng)
            assert placement_state(problem) == placement_state(oracle)
            assert rng.getstate() == oracle_rng.getstate()


class TestMoves:
    def test_move_updates_usage_and_index(self):
        problem = small_problem(num_servers=2, num_replicas=2)
        problem.move(0, 0)
        problem.move(1, 0)
        assert problem.usage[0][0] == 20.0
        problem.move(1, 1)
        assert problem.usage[0][0] == 10.0
        assert problem.usage[1][0] == 10.0
        assert problem.replicas_on[1] == {1}

    def test_move_to_same_server_is_noop(self):
        problem = small_problem()
        problem.move(0, 1)
        before = [list(row) for row in problem.usage]
        problem.move(0, 1)
        assert [list(row) for row in problem.usage] == before

    def test_move_to_minus_one_unassigns(self):
        problem = small_problem()
        problem.move(0, 1)
        problem.move(0, -1)
        assert problem.assignment[0] == -1
        assert problem.usage[1][0] == 0.0

    @pytest.mark.parametrize("target", [-2, 4])
    def test_move_to_a_server_that_does_not_exist_changes_nothing(self, target):
        """Unchecked, -2 indexes the second-to-last server's row while
        ``assignment`` records -2, and 4 raises ``IndexError`` only after
        the replica has left its old server."""
        problem = small_problem(num_servers=4)
        problem.move(0, 1)
        before = ([list(row) for row in problem.usage],
                  [set(on) for on in problem.replicas_on],
                  list(problem.assignment), problem.version)
        with pytest.raises(ValueError, match=f"server {target}"):
            problem.move(0, target)
        assert (problem.usage, problem.replicas_on,
                problem.assignment, problem.version) == before

    def test_usage_bookkeeping_matches_recompute(self):
        rng = random.Random(5)
        problem = small_problem(num_servers=6, num_replicas=30)
        problem.random_assignment(rng)
        for _ in range(200):
            problem.move(rng.randrange(30), rng.randrange(6))
        for server in range(6):
            expected = sum(problem.loads[r][0]
                           for r in problem.replicas_on[server])
            assert problem.usage[server][0] == pytest.approx(expected)
