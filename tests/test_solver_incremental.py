"""Parity harness for the incremental goal-state accounting.

The solver keeps per-goal cached per-server costs, a cached violation
counter, and a sorted violating-server structure, all maintained through
``on_move`` dirty sets.  These tests pin the central invariant: after any
sequence of moves, the cached views must agree *exactly* with a naive
recount — both ``recount_violations()`` on the live goal and a fresh goal
instance built from the same problem state.

Covered per goal type: notified moves (``on_move``), external moves
(``problem.move`` without notification — the version guard must detect
them and self-heal), and interleavings of the two.  Solver-level tests
check end-state parity and move-sequence determinism.

The second half is the oracle for the lazy search: the eager candidate
selection (filter, normalise, sort, dedup, slice over the whole server),
the per-target evaluation loop and each goal's single-call delta the
solver used before its cost was made proportional to what the search
touches are kept *here* as the reference, and random problems must walk
a prefix of the same candidates at every call, pick the same target for
every replica it evaluates, and end with the same move sequence,
evaluation count and RNG state, float for float.
"""

import functools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver.goals import (
    AffinityGoal,
    BalanceGoal,
    CapacityGoal,
    DrainGoal,
    SpreadGoal,
    UtilizationGoal,
)
from repro.solver.local_search import (BASELINE, MAX_REPLICAS_PER_SERVER,
                                       OPTIMIZED, LocalSearch, SearchConfig)
from repro.solver.problem import PlacementProblem, ReplicaInfo, ServerInfo
from repro.solver.specs import (
    AffinitySpec,
    BalanceSpec,
    CapacitySpec,
    DrainSpec,
    ExclusionSpec,
    Scope,
    UtilizationSpec,
)
from repro.workloads.snapshots import (
    PAPER_SCALES,
    attach_zippydb_goals,
    scaled,
    zippydb_snapshot,
)


def build_problem(num_servers=9, num_shards=8, replicas_per_shard=3,
                  load=25.0, seed=11, draining=(2,)):
    rng = random.Random(seed)
    servers = [
        ServerInfo(name=f"s{i}", region=["A", "B", "C"][i % 3],
                   datacenter=f"dc{i % 2}", rack=f"rack{i}",
                   capacity=(100.0,),
                   draining=(i in draining))
        for i in range(num_servers)
    ]
    replicas = []
    for shard in range(num_shards):
        for copy in range(replicas_per_shard):
            replicas.append(ReplicaInfo(
                name=f"sh{shard}#{copy}", shard=f"sh{shard}",
                load=(load + shard,),
                preferred_region="A" if shard % 2 == 0 else None))
    problem = PlacementProblem(["cpu"], servers, replicas)
    problem.random_assignment(rng)
    return problem


GOAL_FACTORIES = {
    "capacity": lambda p: CapacityGoal(p, CapacitySpec(metric="cpu")),
    "utilization": lambda p: UtilizationGoal(
        p, UtilizationSpec(metric="cpu", threshold=0.6)),
    "balance-global": lambda p: BalanceGoal(
        p, BalanceSpec(metric="cpu", band=0.05), weight=1.0),
    "balance-region": lambda p: BalanceGoal(
        p, BalanceSpec(metric="cpu", scope=Scope.REGION, band=0.05),
        weight=1.0),
    "affinity": lambda p: AffinityGoal(p, AffinitySpec()),
    "spread-region": lambda p: SpreadGoal(p, ExclusionSpec(scope=Scope.REGION)),
    "spread-rack": lambda p: SpreadGoal(p, ExclusionSpec(scope=Scope.RACK)),
    "drain": lambda p: DrainGoal(p, DrainSpec()),
}


def assert_matches_fresh(goal, problem, factory):
    """Cached accounting must agree exactly with a from-scratch instance."""
    goal.refresh()
    fresh = factory(problem)
    fresh.refresh()
    assert goal.violations() == goal.recount_violations()
    assert goal.violations() == fresh.violations()
    assert goal.total_cost() == pytest.approx(fresh.total_cost(), abs=1e-12)
    assert goal.violating_servers() == fresh.violating_servers()


@pytest.mark.parametrize("name", sorted(GOAL_FACTORIES))
class TestIncrementalParity:
    def test_notified_moves(self, name):
        factory = GOAL_FACTORIES[name]
        problem = build_problem()
        goal = factory(problem)
        rng = random.Random(5)
        for step in range(300):
            replica = rng.randrange(len(problem.loads))
            src = problem.assignment[replica]
            dst = rng.randrange(len(problem.servers))
            problem.move(replica, dst)
            goal.on_move(replica, src, dst)
            if step % 25 == 0:
                assert_matches_fresh(goal, problem, factory)
        assert_matches_fresh(goal, problem, factory)

    def test_external_moves_self_heal(self, name):
        factory = GOAL_FACTORIES[name]
        problem = build_problem()
        goal = factory(problem)
        goal.violations()  # force the caches to build
        rng = random.Random(6)
        for _ in range(100):
            replica = rng.randrange(len(problem.loads))
            problem.move(replica, rng.randrange(len(problem.servers)))
        # No on_move notifications at all: the version guard must detect
        # the drift and fall back to a full recount.
        assert_matches_fresh(goal, problem, factory)

    def test_interleaved_notified_and_external(self, name):
        factory = GOAL_FACTORIES[name]
        problem = build_problem()
        goal = factory(problem)
        rng = random.Random(7)
        for step in range(200):
            replica = rng.randrange(len(problem.loads))
            src = problem.assignment[replica]
            dst = rng.randrange(len(problem.servers))
            problem.move(replica, dst)
            if rng.random() < 0.7:
                goal.on_move(replica, src, dst)
            if step % 40 == 0:
                assert_matches_fresh(goal, problem, factory)
        assert_matches_fresh(goal, problem, factory)

    def test_noop_move_notifications(self, name):
        """on_move with src == dst must not disturb the accounting."""
        factory = GOAL_FACTORIES[name]
        problem = build_problem()
        goal = factory(problem)
        rng = random.Random(8)
        for _ in range(50):
            replica = rng.randrange(len(problem.loads))
            src = problem.assignment[replica]
            goal.on_move(replica, src, src)
        assert_matches_fresh(goal, problem, factory)


def _all_goals(problem):
    return [factory(problem) for factory in GOAL_FACTORIES.values()]


def _solve(config, seed=11):
    problem = build_problem(seed=seed)
    goals = _all_goals(problem)
    search = LocalSearch(problem, goals, config)
    result = search.solve()
    return problem, goals, result


@pytest.mark.parametrize("config", [
    pytest.param(OPTIMIZED, id="optimized"),
    pytest.param(BASELINE, id="baseline"),
])
class TestSolverParity:
    def test_end_state_matches_recount(self, config):
        problem, goals, _result = _solve(config)
        for goal, factory in zip(goals, GOAL_FACTORIES.values()):
            assert_matches_fresh(goal, problem, factory)

    def test_identical_seeds_identical_moves(self, config):
        _p1, _g1, r1 = _solve(config)
        _p2, _g2, r2 = _solve(config)
        assert r1.moves == r2.moves
        assert r1.evaluations == r2.evaluations
        assert r1.changed_replicas == r2.changed_replicas
        assert _p1.assignment == _p2.assignment

    def test_solver_reduces_violations(self, config):
        problem, goals, result = _solve(config)
        assert result.final_violations <= result.initial_violations
        assert result.final_violations == sum(
            g.recount_violations() for g in goals)


class TestDrainSemantics:
    def test_drain_counts_replicas_not_servers(self):
        problem = build_problem(draining=(0, 1))
        goal = DrainGoal(problem, DrainSpec())
        expected = sum(len(problem.replicas_on[s])
                       for s in (0, 1))
        assert goal.violations() == expected
        assert goal.recount_violations() == expected


# -- oracle: the eager search, kept as the reference -------------------------

THRESHOLD_GOALS = (CapacityGoal, UtilizationGoal, BalanceGoal)


def reference_crowded(goal, replica):
    """A spread goal's crowded test read off its counts table, not off
    the crowded-cell set the goal keeps beside it."""
    server = goal.problem.assignment[replica]
    return server != -1 and goal._counts.get(
        (goal.problem.shard_of[replica], goal.domain_of_server[server]),
        0) > 1


def reference_spread_delta(goal, replica, src, dst):
    """The single-call spread delta, from the counts table."""
    if src == dst:
        return 0.0
    shard = goal.problem.shard_of[replica]
    src_domain = goal.domain_of_server[src] if src != -1 else None
    dst_domain = goal.domain_of_server[dst]
    if src_domain == dst_domain:
        return 0.0
    delta = 0.0
    if src_domain is not None:
        if goal._counts.get((shard, src_domain), 0) > 1:
            delta -= 1.0  # leaving a crowded domain removes one excess
    if goal._counts.get((shard, dst_domain), 0) >= 1:
        delta += 1.0  # entering an occupied domain adds one excess
    return delta


def reference_affinity_delta(goal, replica, src, dst):
    """The single-call region-preference delta."""
    key = goal._group_of.get(replica)
    if key is None or src == dst:
        return 0.0
    pref = key[1]
    region = goal.problem.server_region
    src_in = src != -1 and region[src] == pref
    dst_in = region[dst] == pref
    if src_in == dst_in:
        return 0.0
    count = goal._in_pref[key]
    weight = goal._group_weight[key]
    if src_in:  # leaving the preferred region
        return weight if count == 1 else 0.0
    return -weight if count == 0 else 0.0  # entering it


def reference_drain_delta(goal, replica, src, dst):
    """The single-call drain delta."""
    if src == dst:
        return 0.0
    draining = goal.problem.server_draining
    before = 1.0 if (src != -1 and draining[src]) else 0.0
    after = 1.0 if draining[dst] else 0.0
    return after - before


def reference_move_delta(goal, replica, src, dst):
    """The single-call delta: the three load goals each carried this
    body, and the placement goals the bodies above."""
    if isinstance(goal, SpreadGoal):
        return reference_spread_delta(goal, replica, src, dst)
    if isinstance(goal, AffinityGoal):
        return reference_affinity_delta(goal, replica, src, dst)
    if isinstance(goal, DrainGoal):
        return reference_drain_delta(goal, replica, src, dst)
    load = goal.problem.loads[replica][goal.metric]
    if load == 0.0 or src == dst:
        return 0.0
    m = goal.metric
    usage = goal.problem.usage
    limits = goal._limits
    src_use, src_limit = usage[src][m], limits[src]
    dst_use, dst_limit = usage[dst][m], limits[dst]
    src_before = max(0.0, src_use - src_limit)
    src_after = max(0.0, src_use - load - src_limit)
    dst_before = max(0.0, dst_use - dst_limit)
    dst_after = max(0.0, dst_use + load - dst_limit)
    return (src_after - src_before) + (dst_after - dst_before)


def eager_dedup(search, replicas):
    """One representative per equivalence class, over the whole list."""
    load_keys = [tuple(round(v, 6) for v in load)
                 for load in search.problem.loads]
    pref = (search._affinity.pref_region
            if search._affinity is not None else None)
    seen = set()
    kept = []
    for replica in replicas:
        key = (load_keys[replica],
               pref[replica] if pref is not None else -1,
               tuple(reference_crowded(goal, replica)
                     for goal in search._spreads))
        if key in seen:
            continue
        seen.add(key)
        kept.append(replica)
    return kept


def eager_candidates(search, server, rng):
    """Filter, size, fully sort (or shuffle), dedup, then slice."""
    problem = search.problem
    pinned = problem.replica_pinned
    checks = search._contrib_checks
    if checks is not None:
        checks = [functools.partial(reference_crowded, check.__self__)
                  if isinstance(check.__self__, SpreadGoal) else check
                  for check in checks]
    replicas = [r for r in problem.replicas_on[server]
                if not pinned[r]
                and (checks is None or any(check(r) for check in checks))]
    if not replicas:
        return []
    optimized = search.config.optimized
    if optimized:
        capacity = problem.capacity[server]
        sizes = []
        for replica in replicas:
            load = problem.loads[replica]
            total = 0.0
            for m, cap in enumerate(capacity):
                if cap > 0:
                    total += load[m] / cap
            sizes.append(total)
        order = sorted(range(len(replicas)), key=sizes.__getitem__,
                       reverse=True)
        replicas = [replicas[i] for i in order]
    else:
        rng.shuffle(replicas)
    if optimized:
        replicas = eager_dedup(search, replicas)
    return replicas[:MAX_REPLICAS_PER_SERVER]


def reference_best_target(search, replica, src, batch, higher):
    """The per-target loop with single-call deltas: the best improving
    target (or None) and how many targets were evaluated."""
    higher = [g for g in higher
              if not (search.nonneg and isinstance(g, CapacityGoal))]
    best_delta = -1e-9
    best_target = None
    evaluated = 0
    for target in search._sample_targets(replica, src):
        if search.problem.server_draining[target]:
            continue
        if not all(g.fitting(replica, (target,))
                   for g in search.capacity_goals):
            continue
        evaluated += 1
        if any(reference_move_delta(g, replica, src, target) > 1e-9
               for g in higher):
            continue
        delta = 0.0
        for goal in batch:
            delta += goal.weight * reference_move_delta(
                goal, replica, src, target)
        if delta < best_delta:
            best_delta = delta
            best_target = target
    return best_target, evaluated


class RecordsBatch(LocalSearch):
    """Keeps the batch and higher goals being solved."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.nonneg = all(min(load, default=0.0) >= 0.0
                          for load in self.problem.loads)

    def _solve_batch(self, batch, higher, result):
        self._ref_batch, self._ref_higher = batch, higher
        return super()._solve_batch(batch, higher, result)


class EagerSearch(RecordsBatch):
    """The reference: eager candidates, one single-call delta per target."""

    def _candidate_replicas(self, server):
        return eager_candidates(self, server, self.rng)

    def _best_target(self, replica, src, result):
        target, evaluated = reference_best_target(
            self, replica, src, self._ref_batch, self._ref_higher)
        result.evaluations += evaluated
        return target


class CheckedSearch(RecordsBatch):
    """The real search, held to the reference at every step: the
    replicas a candidate walk yields are a prefix of the eager list, and
    every replica gets the reference's target after the same draws and
    evaluations."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0
        self.pairs_seen = set()  # (server, replica) the search looked at

    def _candidate_replicas(self, server):
        twin = random.Random()
        twin.setstate(self.rng.getstate())
        expected = eager_candidates(self, server, twin)
        self.pairs_seen.update((server, replica) for replica
                               in self.problem.replicas_on[server])
        self.calls += 1
        walk = super()._candidate_replicas(server)
        consumed = 0
        for replica in walk:
            if consumed == 0:  # the baseline shuffles on the first pull
                assert self.rng.getstate() == twin.getstate()
            assert replica == expected[consumed]
            consumed += 1
            yield replica
        assert consumed == len(expected)
        if consumed == 0:
            assert self.rng.getstate() == twin.getstate()

    def _best_target(self, replica, src, result):
        rng = self.rng
        self.rng = random.Random()
        self.rng.setstate(rng.getstate())
        try:
            expected, evaluated = reference_best_target(
                self, replica, src, self._ref_batch, self._ref_higher)
        finally:
            twin, self.rng = self.rng, rng
        before = result.evaluations
        target = super()._best_target(replica, src, result)
        assert target == expected
        assert result.evaluations - before == evaluated
        assert rng.getstate() == twin.getstate()
        return target


@st.composite
def solver_cases(draw):
    """A random problem recipe: few distinct load vectors (so sizes and
    equivalence keys tie), pinned replicas, zero-capacity metrics,
    heterogeneous capacities, and fleets up to 95 % full."""
    return dict(
        seed=draw(st.integers(0, 2 ** 16)),
        num_metrics=draw(st.integers(1, 3)),
        num_servers=draw(st.integers(3, 10)),
        num_shards=draw(st.integers(2, 14)),
        replicas_per_shard=draw(st.integers(1, 3)),
        distinct_loads=draw(st.integers(1, 4)),
        fill=draw(st.sampled_from([0.4, 0.7, 0.95])),
        pinned_share=draw(st.sampled_from([0.0, 0.2])),
        zero_capacity=draw(st.booleans()),
        placement_goals=draw(st.booleans()),
        region_returns=draw(st.booleans()),
    )


#: A region comes back empty after its replicas were re-created in the
#: other two: every shard has two cells, one of them crowded, and the
#: spread goals re-plan the lot (the shape of a solve after a region
#: outage ends, at tiny size).
REGION_RETURNS = dict(seed=3, num_metrics=2, num_servers=12, num_shards=14,
                      replicas_per_shard=3, distinct_loads=2, fill=0.7,
                      pinned_share=0.0, zero_capacity=False,
                      placement_goals=True, region_returns=True)


def build_case(case):
    """``region_returns`` implies three replicas a shard, placed in
    regions A and B only, and the placement goals."""
    rng = random.Random(case["seed"])
    num_metrics = case["num_metrics"]
    metrics = ["cpu", "storage", "shard_count"][:num_metrics]
    region_returns = case["region_returns"]
    replicas_per_shard = 3 if region_returns else case["replicas_per_shard"]
    num_replicas = case["num_shards"] * replicas_per_shard
    load_vectors = [tuple(rng.choice([0.0, 1.0, 2.0, 2.5, 4.0])
                          for _ in range(num_metrics))
                    for _ in range(case["distinct_loads"])]
    mean_load = max(1e-9, sum(sum(v) for v in load_vectors)
                    / (len(load_vectors) * num_metrics))
    base = mean_load * num_replicas / (case["num_servers"] * case["fill"])
    servers = []
    for i in range(case["num_servers"]):
        capacity = [base * rng.choice([0.8, 1.0, 1.0, 1.25])
                    for _ in range(num_metrics)]
        if case["zero_capacity"] and rng.random() < 0.3:
            capacity[rng.randrange(num_metrics)] = 0.0
        servers.append(ServerInfo(
            name=f"s{i}", region="ABC"[i % 3], datacenter=f"dc{i % 2}",
            rack=f"rack{i}", capacity=tuple(capacity),
            draining=rng.random() < 0.1))
    replicas = []
    for shard in range(case["num_shards"]):
        preferred = rng.choice(["A", "B", None])
        for copy in range(replicas_per_shard):
            replicas.append(ReplicaInfo(
                name=f"sh{shard}#{copy}", shard=f"sh{shard}",
                load=rng.choice(load_vectors), preferred_region=preferred,
                pinned=rng.random() < case["pinned_share"]))
    problem = PlacementProblem(metrics, servers, replicas)
    if region_returns:
        # Copies 0 and 1 in A and B, copy 2 back in one of them.
        in_region = [[s for s in range(len(servers))
                      if servers[s].region == region] for region in "AB"]
        for replica in range(num_replicas):
            copy = replica % 3
            region = copy if copy < 2 else rng.randrange(2)
            problem.move(replica, rng.choice(in_region[region]))
    else:
        problem.random_assignment(rng)
    goals = []
    for metric in metrics:
        goals.append(CapacityGoal(problem, CapacitySpec(metric=metric)))
        goals.append(UtilizationGoal(
            problem, UtilizationSpec(metric=metric, threshold=0.8)))
        goals.append(BalanceGoal(
            problem, BalanceSpec(metric=metric, band=0.05)))
    goals.append(BalanceGoal(problem, BalanceSpec(
        metric=metrics[0], scope=Scope.REGION, band=0.05, priority=6)))
    if case["placement_goals"] or region_returns:
        goals.append(AffinityGoal(problem, AffinitySpec()))
        goals.append(SpreadGoal(problem, ExclusionSpec(scope=Scope.REGION)))
        goals.append(SpreadGoal(problem, ExclusionSpec(scope=Scope.HOST,
                                                       priority=1)))
        goals.append(DrainGoal(problem, DrainSpec()))
    return problem, goals


ORACLE_CONFIGS = {"optimized": OPTIMIZED, "baseline": BASELINE}


def assert_same_solve(build, config):
    """Lazy and eager searches over two copies of one problem agree on
    everything observable, including where the RNG ended up."""
    problem, goals = build()
    search = CheckedSearch(problem, goals, config)
    result = search.solve()
    ref_problem, ref_goals = build()
    before = list(ref_problem.assignment)
    ref_search = EagerSearch(ref_problem, ref_goals, config)
    reference = ref_search.solve()
    assert result.changed_replicas == [
        (replica, old, new) for replica, (old, new)
        in enumerate(zip(before, ref_problem.assignment)) if old != new]
    assert problem.assignment == ref_problem.assignment
    assert (result.moves, result.evaluations) == (
        reference.moves, reference.evaluations)
    assert (result.initial_violations, result.final_violations) == (
        reference.initial_violations, reference.final_violations)
    assert search.rng.getstate() == ref_search.rng.getstate()
    # The steps the journal counts beside them.
    assert (result.rounds, result.hot_servers) == (
        reference.rounds, reference.hot_servers)
    return search, result


class TestLazySearchMatchesEagerOracle:
    @settings(max_examples=120, deadline=None)
    @given(case=solver_cases(),
           config=st.sampled_from(sorted(ORACLE_CONFIGS)),
           rng_seed=st.integers(0, 5))
    def test_random_problems(self, case, config, rng_seed):
        assert_same_solve(lambda: build_case(case),
                          replace(ORACLE_CONFIGS[config], rng_seed=rng_seed))

    @pytest.mark.parametrize("config", sorted(ORACLE_CONFIGS))
    def test_region_returns(self, config):
        """Half of the region cells start crowded: the spread batches
        move replica after replica, most from a first representative."""
        _search, result = assert_same_solve(
            lambda: build_case(REGION_RETURNS), ORACLE_CONFIGS[config])
        assert result.moves > 0

    @pytest.mark.parametrize("config", sorted(ORACLE_CONFIGS))
    def test_fig21_snapshot(self, config):
        scale = scaled(PAPER_SCALES, factor=50)[1]

        def build():
            problem = zippydb_snapshot(scale, seed=4)
            return problem, attach_zippydb_goals(problem)._goals
        search, result = assert_same_solve(build, ORACLE_CONFIGS[config])
        assert result.moves > 0 and search.calls > 0


class TestThresholdDeltaSplit:
    """Every goal's batched ``move_deltas`` (source half once, then the
    destination half per target) equals the old single-call delta, bit
    for bit."""

    @pytest.mark.parametrize("name", sorted(GOAL_FACTORIES))
    def test_bit_identical(self, name):
        rng = random.Random(13)
        for seed in range(6):
            problem = build_problem(seed=seed, load=rng.choice([0.0, 9.7, 31.3]))
            goal = GOAL_FACTORIES[name](problem)
            servers = list(range(len(problem.servers)))
            for _ in range(60):
                replica = rng.randrange(len(problem.loads))
                src = problem.assignment[replica]
                targets = [s for s in rng.sample(servers, 5) if s != src]
                expected = [reference_move_delta(goal, replica, src, dst)
                            for dst in targets]
                batch = goal.move_deltas(replica, src, targets)
                assert [d.hex() for d in batch] == [d.hex() for d in expected]
                if not isinstance(goal, THRESHOLD_GOALS):
                    # The baseline arm's uniform sample may hold src.
                    assert goal.move_deltas(replica, src, (src,)) == [0.0]
                dst = rng.choice(servers)
                problem.move(replica, dst)
                goal.on_move(replica, src, dst)

    def test_fitting_is_fits_per_target(self):
        problem = build_problem(load=31.0)
        goal = GOAL_FACTORIES["capacity"](problem)
        servers = list(range(len(problem.servers)))
        for replica in range(len(problem.loads)):
            assert goal.fitting(replica, servers) == [
                s for s in servers if goal.fitting(replica, (s,))]


class TestCostFollowsTheSearch:
    def _solve_snapshot(self):
        problem = zippydb_snapshot(scaled(PAPER_SCALES, factor=25)[1], seed=1)
        search = CheckedSearch(problem, attach_zippydb_goals(problem)._goals,
                               OPTIMIZED)
        return problem, search, search.solve()

    def test_keys_computed_only_for_replicas_met(self):
        """Pinned by a count, not a timing: equivalence keys exist for at
        most the replicas on servers the search visited — a small part of
        the fleet — and nothing per replica is built at construction."""
        problem, search, result = self._solve_snapshot()
        replicas_seen = {replica for _server, replica in search.pairs_seen}
        keys = len(search._class_keys)
        assert 0 < keys <= len(replicas_seen)
        assert len(replicas_seen) < len(problem.loads) / 2
        assert sum(len(sizes) for sizes in search._sizes.values()) <= len(
            search.pairs_seen)

    def test_clock_starts_at_construction(self):
        """Set-up is part of solve_time, and the time_budget mark covers
        construction too (it only flags the solve, which still runs)."""
        _problem, _search, result = self._solve_snapshot()
        assert 0.0 < result.setup_time <= result.solve_time
        problem = build_problem()
        search = LocalSearch(problem, _all_goals(problem),
                             SearchConfig(time_budget=5.0))
        search._construct_s = 6.0  # as if construction had taken 6 s
        result = search.solve()
        assert result.timed_out and result.moves > 0
        assert result.solve_time >= 6.0


class CountingList(list):
    """A list that counts the items read from it, by index or by
    iteration."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item


class WalkCountingSearch(LocalSearch):
    """Per ``_improve_server`` call: replicas the candidate walk pulled
    through the ``_movable`` filter, how many passed it (each gets a class
    key), targets evaluated, and whether a move was made."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.walks = []

    def _improve_server(self, server, result):
        self._walked = self._keyed = self._evaluated = 0
        moves = result.moves
        moved = super()._improve_server(server, result)
        self.walks.append((self._walked, self._keyed, self._evaluated,
                           result.moves > moves))
        return moved

    def _movable(self, replica):
        movable = super()._movable(replica)
        self._walked += 1
        self._keyed += movable
        return movable

    def _best_target(self, replica, src, result):
        self._evaluated += 1
        return super()._best_target(replica, src, result)


class TestSpreadWorkFollowsTheMove:
    """Work budgets on the region-returns instance, as counts (no
    timings): a spread solve pays for the cells that are crowded and the
    replicas the walk reaches, not for the fleet or the whole server."""

    def test_no_crowded_cell_visits_no_replica(self):
        # Copy 2 of every shard goes to region C, and the fleet is loaded
        # lightly enough that no move crowds a cell again.
        problem, goals = build_case(dict(REGION_RETURNS, fill=0.4))
        in_c = [s for s, server in enumerate(problem.servers)
                if server.region == "C"]
        for replica in range(2, len(problem.loads), 3):
            problem.move(replica, in_c[replica % len(in_c)])
        problem.assignment = CountingList(problem.assignment)
        spreads = [g for g in goals if isinstance(g, SpreadGoal)]
        visits = []
        for goal in spreads:
            def counted(goal=goal, scan=goal.violating_servers):
                assert goal.violations() == 0
                before = problem.assignment.reads
                servers = scan()
                visits.append(problem.assignment.reads - before)
                return servers
            goal.violating_servers = counted
        result = LocalSearch(problem, goals, OPTIMIZED).solve()
        assert result.moves == 12
        assert visits == [0, 0]  # one round of each spread batch

    def test_walk_stops_at_the_accepted_replica(self):
        problem, goals = build_case(REGION_RETURNS)
        search = WalkCountingSearch(problem, goals, OPTIMIZED)
        result = search.solve()
        first_taken = [(walked, keyed) for walked, keyed, evaluated, moved
                       in search.walks if moved and evaluated == 1]
        assert result.moves == 39 and len(first_taken) == 37
        # One class key a call, the representative's: the replicas walked
        # before it are the larger ones the filter skipped, and nothing
        # after it is walked.
        assert [keyed for _walked, keyed in first_taken] == [1] * 37
        assert sum(walked for walked, _keyed in first_taken) == 55
