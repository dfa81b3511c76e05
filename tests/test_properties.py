"""Property-based tests (hypothesis) for core data structures/invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.consistent_hashing import ConsistentHashRing
from repro.baselines.pinned import modulo_placement
from repro.core.shard_map import AssignmentTable
from repro.core.spec import AppSpec, ReplicationStrategy, uniform_shards
from repro.metrics.timeseries import RateWindow, percentile
from repro.replication.paxos import Acceptor, Ballot
from repro.solver.local_search import SearchConfig
from repro.solver.problem import PlacementProblem, ReplicaInfo, ServerInfo
from repro.solver.api import Rebalancer
from repro.solver.specs import BalanceSpec, CapacitySpec, UtilizationSpec


@settings(max_examples=50, deadline=None)
@given(
    shard_count=st.integers(min_value=1, max_value=40),
    key_space_factor=st.integers(min_value=1, max_value=50),
)
def test_uniform_shards_partition_the_key_space(shard_count,
                                                key_space_factor):
    """Every key maps to exactly one shard, with no gaps or overlaps."""
    key_space = shard_count * key_space_factor
    shards = uniform_shards(shard_count, key_space=key_space)
    spec = AppSpec(name="x", shards=shards,
                   replication=ReplicationStrategy.PRIMARY_ONLY)
    shard_map = AssignmentTable(spec).snapshot()
    boundaries = set()
    for shard in shards:
        boundaries.add(shard.key_range.low)
        boundaries.add(shard.key_range.high - 1)
    for key in boundaries | {0, key_space - 1}:
        owners = [s for s in shards if key in s.key_range]
        assert len(owners) == 1
        assert shards[shard_map.index_for_key(key)] is owners[0]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_servers=st.integers(min_value=2, max_value=10),
    num_replicas=st.integers(min_value=1, max_value=60),
    moves=st.integers(min_value=0, max_value=200),
)
def test_problem_usage_bookkeeping_is_exact(seed, num_servers, num_replicas,
                                            moves):
    """Incremental usage updates always equal a from-scratch recompute."""
    rng = random.Random(seed)
    servers = [ServerInfo(name=f"s{i}", region="A", capacity=(100.0, 50.0))
               for i in range(num_servers)]
    replicas = [ReplicaInfo(name=f"r{i}", shard=f"sh{i % 7}",
                            load=(rng.uniform(0, 5), rng.uniform(0, 2)))
                for i in range(num_replicas)]
    problem = PlacementProblem(["cpu", "mem"], servers, replicas)
    problem.random_assignment(rng)
    for _ in range(moves):
        problem.move(rng.randrange(num_replicas), rng.randrange(num_servers))
    for server in range(num_servers):
        for metric in range(2):
            expected = sum(problem.loads[r][metric]
                           for r in problem.replicas_on[server])
            assert abs(problem.usage[server][metric] - expected) < 1e-6


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1_000))
def test_solver_never_overflows_capacity_on_ok_servers(seed):
    """Servers that start within capacity stay within capacity."""
    rng = random.Random(seed)
    servers = [ServerInfo(name=f"s{i}", region="A", capacity=(100.0,))
               for i in range(8)]
    replicas = [ReplicaInfo(name=f"r{i}", shard=f"sh{i}",
                            load=(rng.uniform(1, 20),)) for i in range(40)]
    problem = PlacementProblem(["cpu"], servers, replicas)
    problem.random_assignment(rng)
    overflowing_before = {
        s for s in range(8)
        if problem.usage[s][0] > problem.capacity[s][0] + 1e-9}
    rebalancer = Rebalancer(problem)
    rebalancer.add_constraint(CapacitySpec(metric="cpu"))
    rebalancer.add_goal(UtilizationSpec(metric="cpu", threshold=0.9))
    rebalancer.add_goal(BalanceSpec(metric="cpu", band=0.1))
    rebalancer.solve(SearchConfig(time_budget=2.0, rng_seed=seed))
    for s in range(8):
        if s not in overflowing_before:
            assert problem.usage[s][0] <= problem.capacity[s][0] + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    total_tasks=st.integers(min_value=1, max_value=64),
    keys=st.lists(st.integers(min_value=0, max_value=1 << 30),
                  min_size=1, max_size=50),
)
def test_static_sharding_is_total_and_stable(total_tasks, keys):
    tasks = [f"task{i:02d}" for i in range(total_tasks)]
    for key in keys:
        task = modulo_placement(key, f"s{key}", tasks)
        assert task in tasks
        assert modulo_placement(key, f"s{key}", tasks) == task


@settings(max_examples=20, deadline=None)
@given(
    node_count=st.integers(min_value=1, max_value=12),
    keys=st.lists(st.integers(min_value=0, max_value=1 << 30),
                  min_size=1, max_size=30, unique=True),
)
def test_consistent_hashing_total_and_member(node_count, keys):
    nodes = {f"n{i}" for i in range(node_count)}
    ring = ConsistentHashRing(sorted(nodes))
    for key in keys:
        assert ring.node_for_key(key) in nodes


@settings(max_examples=30, deadline=None)
@given(
    events=st.lists(
        st.tuples(st.floats(min_value=0, max_value=1000,
                            allow_nan=False),
                  st.booleans()),
        min_size=1, max_size=100),
    width=st.floats(min_value=0.1, max_value=100.0),
)
def test_rate_window_totals_conserve_events(events, width):
    window = RateWindow(width)
    for time, ok in events:
        window.record(time, ok)
    ok_total = sum(window.totals(b)[0] for b in window.buckets())
    failed_total = sum(window.totals(b)[1] for b in window.buckets())
    assert ok_total == sum(1 for _t, ok in events if ok)
    assert failed_total == sum(1 for _t, ok in events if not ok)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                 allow_nan=False),
                       min_size=1, max_size=200))
def test_percentile_bounds_and_monotonicity(values):
    p50 = percentile(values, 50)
    p99 = percentile(values, 99)
    assert min(values) <= p50 <= p99 <= max(values)


@settings(max_examples=20, deadline=None)
@given(
    ballots=st.lists(
        st.tuples(st.integers(min_value=0, max_value=20),
                  st.sampled_from(["p", "q", "r"])),
        min_size=1, max_size=30),
)
def test_acceptor_promise_is_monotonic(ballots):
    """An acceptor's promised ballot never decreases, and it accepts at
    a ballot exactly when that ballot is not below the promise."""
    acceptor = Acceptor("a")
    highest = None
    for round_number, proposer in ballots:
        ballot = Ballot(round_number, proposer)
        ok, promised, _accepted = acceptor.on_prepare_range(0, ballot)
        if ok:
            assert highest is None or highest < ballot
            highest = ballot
        assert promised == highest
        assert acceptor.on_accept(0, ballot, "v").ok == (ballot == highest)
