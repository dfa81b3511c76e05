"""Goal evaluators: specs compiled against a concrete problem.

Each evaluator supports *incremental* move evaluation — ``move_delta``
answers "how does the cost change if replica r moves src → dst" in O(1)
(per metric) without recomputing the whole objective.  This is our
equivalent of ReBalancer's objective tree that "only traverses tree nodes
whose values may change" (§5.3): the objective decomposes per server /
per (shard, domain) term, and a single move touches at most two terms per
goal.

The search evaluates one replica against a couple of dozen sampled
targets at a time, so the interface also has the batch form
``move_deltas(replica, src, targets)``.  The three load goals (capacity,
utilization, balance) are one :class:`_ThresholdGoal` with different
limits; its batch form computes the source server's half of the delta
once and only the destination half per target.

Violation *accounting* is incremental too.  The per-server goals
(capacity, utilization, balance, drain) derive from
:class:`_ServerCostGoal`, which keeps

* a cached per-server cost vector (overflow / excess / replica count),
* a *dirty-server set* — ``on_move`` marks only the two touched servers,
* a cached violation counter, and
* a sorted violating-server structure (descending ``(cost, server)``)
  that is repaired entry-by-entry for dirtied servers instead of
  re-sorting all servers every round.

The cached values are bit-identical to a from-scratch recount: dirty
servers are *recomputed from current problem state* (never patched with
deltas), so the incremental path cannot drift and the solver's move
sequence is unchanged for a fixed seed.  ``tests/test_solver_incremental.py``
is the parity harness enforcing this.

All evaluators share the mutable :class:`~repro.solver.problem.PlacementProblem`
and must be notified of applied moves via ``on_move``.  As a safety net,
every evaluator snapshots ``problem.version`` when it syncs; if the
assignment was mutated behind its back (e.g. a test calling
``problem.move`` directly), the next read detects the version mismatch and
falls back to a full recount.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .problem import PlacementProblem
from .specs import (
    AffinitySpec,
    BalanceSpec,
    CapacitySpec,
    DrainSpec,
    ExclusionSpec,
    Scope,
    UtilizationSpec,
)

_EPS = 1e-9


class Goal:
    """Interface shared by all goal evaluators."""

    name: str = "goal"
    priority: int = 0
    weight: float = 1.0

    def total_cost(self) -> float:
        raise NotImplementedError

    def violations(self) -> int:
        raise NotImplementedError

    def recount_violations(self) -> int:
        """From-scratch recount, bypassing every cache (parity harness)."""
        raise NotImplementedError

    def violating_servers(self) -> List[int]:
        """Server indices whose state this goal wants changed, worst first."""
        raise NotImplementedError

    def move_delta(self, replica: int, src: int, dst: int) -> float:
        raise NotImplementedError

    def move_deltas(self, replica: int, src: int,
                    targets: Sequence[int]) -> List[float]:
        """``move_delta`` of one replica against many targets (none of
        them ``src``) — what the search calls, once per sampled replica."""
        move_delta = self.move_delta
        return [move_delta(replica, src, dst) for dst in targets]

    def on_move(self, replica: int, src: int, dst: int) -> None:
        """Called after the problem applied a move (default: stateless)."""
        return None

    def refresh(self) -> None:
        """Recompute any per-round caches (e.g. regional means)."""
        return None

    def contributes(self, replica: int) -> bool:
        """Whether moving ``replica`` could possibly reduce this goal's cost.

        Load goals return True (any load leaving a hot server helps);
        placement goals (affinity, spread, drain) return True only for the
        replicas that are actually misplaced — this focuses the search.
        """
        return True

    def _note_move(self) -> bool:
        """Advance the cached-state version by one applied move.

        Returns False when at least one ``problem.move`` happened without a
        matching ``on_move`` — the incremental caches may be arbitrarily
        stale, so the next read must do a full recount instead of trusting
        the dirty set.
        """
        version = self.problem.version
        synced = self._synced_version
        if version == synced + 1:
            self._synced_version = version
            return True
        if version != synced:
            self._synced_version = -1
            return False
        return True  # on_move without an effective move: state unchanged


def _domain_array(problem: PlacementProblem, scope: Scope) -> List[int]:
    if scope is Scope.REGION:
        return problem.server_region
    if scope is Scope.DATACENTER:
        return problem.server_dc
    if scope is Scope.RACK:
        return problem.server_rack
    return list(range(len(problem.servers)))  # HOST: every server its own domain


class _ServerCostGoal(Goal):
    """Incremental accounting shared by the per-server-cost goals.

    Subclasses define ``_cost_of(server)`` (reading *current* problem
    state) and call :meth:`_init_incremental` at the end of ``__init__``.
    ``violations()`` / ``violating_servers()`` / ``total_cost()`` then run
    off the caches, reconciling only dirtied servers.
    """

    problem: PlacementProblem

    def _cost_of(self, server: int) -> float:
        raise NotImplementedError

    def _init_incremental(self) -> None:
        self._dirty: Set[int] = set()
        self._synced_version = -1
        self._rebuild()

    def _invalidate(self) -> None:
        """Force a full recount on the next read (e.g. balance means moved)."""
        self._synced_version = -1

    def _rebuild(self) -> None:
        cost_of = self._cost_of
        self._cost = [cost_of(s) for s in range(len(self.problem.servers))]
        self._dirty.clear()
        # Ascending (-cost, -server) == descending (cost, server): exactly
        # the order the naive full sort produced.
        self._viol_sorted: List[Tuple[float, int]] = sorted(
            (-c, -s) for s, c in enumerate(self._cost) if c > _EPS)
        self._viol_count = len(self._viol_sorted)
        self._viol_list: Optional[List[int]] = None
        self._synced_version = self.problem.version

    def _sync(self) -> None:
        if self._synced_version != self.problem.version:
            self._rebuild()
        elif self._dirty:
            self._reconcile()

    def _reconcile(self) -> None:
        dirty = self._dirty
        if len(dirty) * 8 >= len(self._cost):
            self._rebuild()
            return
        cost = self._cost
        viol_sorted = self._viol_sorted
        cost_of = self._cost_of
        changed = False
        for s in dirty:
            old = cost[s]
            new = cost_of(s)
            if new == old:
                continue
            cost[s] = new
            was = old > _EPS
            now = new > _EPS
            if was:
                del viol_sorted[bisect_left(viol_sorted, (-old, -s))]
            if now:
                insort(viol_sorted, (-new, -s))
            if was != now:
                self._viol_count += 1 if now else -1
            self._cost_changed(s, old, new)
            changed = True
        dirty.clear()
        if changed:
            self._viol_list = None

    def _cost_changed(self, server: int, old: float, new: float) -> None:
        """Hook for subclasses maintaining extra aggregates (drain sum)."""
        return None

    def on_move(self, replica: int, src: int, dst: int) -> None:
        if src == dst:
            return
        if not self._note_move():
            return
        if src != -1:
            self._dirty.add(src)
        if dst != -1:
            self._dirty.add(dst)

    def total_cost(self) -> float:
        self._sync()
        return sum(self._cost)

    def violations(self) -> int:
        self._sync()
        return self._viol_count

    def recount_violations(self) -> int:
        cost_of = self._cost_of
        return sum(1 for s in range(len(self.problem.servers))
                   if cost_of(s) > _EPS)

    def violating_servers(self) -> List[int]:
        self._sync()
        if self._viol_list is None:
            self._viol_list = [-s for _neg_cost, s in self._viol_sorted]
        return list(self._viol_list)


class _ThresholdGoal(_ServerCostGoal):
    """A per-server cost of the form ``max(0, usage[metric] - limit)``.

    Capacity, utilization and balance differ only in how ``_limits`` is
    derived.  A move's delta separates into a source half (the source
    sheds ``load``) and a destination half (the target gains it);
    ``move_deltas`` computes the source half once per (replica, src) and
    only the destination half per target, adding them in the order the
    single-call form always did, so every float is the same.
    """

    metric: int
    _limits: List[float]

    def _cost_of(self, server: int) -> float:
        return max(0.0, self.problem.usage[server][self.metric]
                   - self._limits[server])

    def move_deltas(self, replica: int, src: int,
                    targets: Sequence[int]) -> List[float]:
        m = self.metric
        load = self.problem.loads[replica][m]
        if load == 0.0:
            return [0.0] * len(targets)
        usage = self.problem.usage
        limits = self._limits
        src_use, src_limit = usage[src][m], limits[src]
        src_before = max(0.0, src_use - src_limit)
        src_after = max(0.0, src_use - load - src_limit)
        source = src_after - src_before
        deltas = []
        for dst in targets:
            # max(0.0, x) spelled as a branch: no builtin call per target.
            dst_use, dst_limit = usage[dst][m], limits[dst]
            dst_before = dst_use - dst_limit
            if not dst_before > 0.0:
                dst_before = 0.0
            dst_after = dst_use + load - dst_limit
            if not dst_after > 0.0:
                dst_after = 0.0
            deltas.append(source + (dst_after - dst_before))
        return deltas

    def move_delta(self, replica: int, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        return self.move_deltas(replica, src, (dst,))[0]


class CapacityGoal(_ThresholdGoal):
    """Hard constraint, surfaced as the highest-priority goal so the search
    fixes overflow first ("earlier batches focus on ... servers out of
    capacity", §5.3).  ``fits`` additionally vetoes moves that would create
    new overflow."""

    def __init__(self, problem: PlacementProblem, spec: CapacitySpec) -> None:
        self.problem = problem
        self.metric = problem.metrics.index(spec.metric)
        self.headroom = spec.headroom
        self.name = f"capacity[{spec.metric}]"
        self.priority = 0
        self.weight = 1.0
        # Per-server limits are static: precompute once instead of a
        # multiply per move_delta call.
        self._limits: List[float] = [
            cap[self.metric] * self.headroom for cap in problem.capacity]
        self._init_incremental()

    def fitting(self, replica: int, targets: Sequence[int]) -> List[int]:
        """The ``targets`` this replica fits on without overflow, in order."""
        m = self.metric
        load = self.problem.loads[replica][m]
        usage = self.problem.usage
        limits = self._limits
        return [dst for dst in targets
                if usage[dst][m] + load <= limits[dst] + 1e-9]

    def fits(self, replica: int, dst: int) -> bool:
        return bool(self.fitting(replica, (dst,)))


class UtilizationGoal(_ThresholdGoal):
    """Soft goal 4: utilization under a fixed threshold (e.g. 90%)."""

    def __init__(self, problem: PlacementProblem, spec: UtilizationSpec,
                 weight: float = 1.0) -> None:
        self.problem = problem
        self.metric = problem.metrics.index(spec.metric)
        self.threshold = spec.threshold
        self.name = f"util[{spec.metric}]<{spec.threshold:.0%}"
        self.priority = spec.priority
        self.weight = weight
        self._limits: List[float] = [
            cap[self.metric] * self.threshold for cap in problem.capacity]
        self._init_incremental()


class BalanceGoal(_ThresholdGoal):
    """Soft goals 5/6: utilization within ``band`` of the (scope) mean.

    The global mean utilization (total load / total capacity) is invariant
    under moves; per-region means change only on cross-region moves and are
    refreshed once per search round — a deliberate, documented
    approximation that keeps deltas O(1).  ``refresh`` recomputes the
    means from scratch; cached per-server costs are invalidated only when
    a mean actually changed, so the common refresh is O(servers) float
    compares with no re-sort.
    """

    def __init__(self, problem: PlacementProblem, spec: BalanceSpec,
                 weight: float = 1.0) -> None:
        self.problem = problem
        self.metric = problem.metrics.index(spec.metric)
        self.band = spec.band
        self.regional = spec.scope is Scope.REGION
        scope_label = "regional" if self.regional else "global"
        self.name = f"balance[{spec.metric},{scope_label}]"
        self.priority = spec.priority
        self.weight = weight
        self._mean_by_region: List[float] = []
        self._global_mean = 0.0
        self._limits: List[float] = []
        self._dirty: Set[int] = set()
        self._synced_version = -1
        self.refresh()
        self._init_incremental()

    def refresh(self) -> None:
        problem, m = self.problem, self.metric
        if self.regional:
            num_regions = len(problem.region_names)
            cap = [0.0] * num_regions
            use = [0.0] * num_regions
            for s, region in enumerate(problem.server_region):
                cap[region] += problem.capacity[s][m]
                use[region] += problem.usage[s][m]
            means = [u / c if c > 0 else 0.0 for u, c in zip(use, cap)]
            changed = means != self._mean_by_region
            self._mean_by_region = means
        else:
            total_cap = sum(c[m] for c in problem.capacity)
            total_use = sum(u[m] for u in problem.usage)
            mean = total_use / total_cap if total_cap > 0 else 0.0
            changed = mean != self._global_mean
            self._global_mean = mean
        if changed or not self._limits:
            band = self.band
            capacity = problem.capacity
            if self.regional:
                means = self._mean_by_region
                region = problem.server_region
                self._limits = [(means[region[s]] + band) * capacity[s][m]
                                for s in range(len(capacity))]
            else:
                self._limits = [(self._global_mean + band) * cap[m]
                                for cap in capacity]
            # New limits invalidate every cached per-server excess.
            self._invalidate()


class AffinityGoal(Goal):
    """Soft goal 1: regional placement preference, per shard.

    The preference is a *shard-level* property: it is satisfied as soon as
    one replica of the shard sits in the preferred region (§8.3: "each EC
    shard has one replica at FRC for locality and another replica at
    either PRN or ODN for fault tolerance").  Cost per preferring shard is
    its weight if no replica is in the preferred region, else 0.  A counts
    table keeps deltas O(1), and a cached unsatisfied-group counter makes
    ``violations()`` O(1).
    """

    def __init__(self, problem: PlacementProblem, spec: AffinitySpec) -> None:
        if spec.scope is not Scope.REGION:
            raise ValueError("affinity is supported at region scope")
        self.problem = problem
        self.name = "region-preference"
        self.priority = spec.priority
        self.weight = spec.weight
        # Explicit affinities override the problem's per-replica fields.
        self.pref_region = list(problem.replica_pref_region)
        self.pref_weight = list(problem.replica_pref_weight)
        if spec.affinities is not None:
            by_name = {r.name: i for i, r in enumerate(problem.replicas)}
            for replica_name, region, weight in spec.affinities:
                idx = by_name[replica_name]
                self.pref_region[idx] = problem.region_names.index(region)
                self.pref_weight[idx] = weight
        # Group replicas by (shard, preferred region).
        self._group_of: Dict[int, Tuple[int, int]] = {}
        self._group_weight: Dict[Tuple[int, int], float] = {}
        self._group_members: Dict[Tuple[int, int], List[int]] = {}
        for r in range(len(problem.replicas)):
            pref = self.pref_region[r]
            if pref == -1:
                continue
            key = (problem.shard_of[r], pref)
            self._group_of[r] = key
            self._group_weight[key] = max(self._group_weight.get(key, 0.0),
                                          self.pref_weight[r])
            self._group_members.setdefault(key, []).append(r)
        self._in_pref: Dict[Tuple[int, int], int] = {}
        self._unsat_count = 0
        self._synced_version = -1
        self.refresh()

    def refresh(self) -> None:
        self._in_pref = {key: 0 for key in self._group_weight}
        for r, key in self._group_of.items():
            server = self.problem.assignment[r]
            if server != -1 and self.problem.server_region[server] == key[1]:
                self._in_pref[key] += 1
        self._unsat_count = sum(1 for count in self._in_pref.values()
                                if count == 0)
        self._synced_version = self.problem.version

    def _sync(self) -> None:
        if self._synced_version != self.problem.version:
            self.refresh()

    def _unsatisfied(self) -> List[Tuple[int, int]]:
        return [key for key, count in self._in_pref.items() if count == 0]

    def total_cost(self) -> float:
        self._sync()
        return sum(self._group_weight[key] for key in self._unsatisfied())

    def violations(self) -> int:
        self._sync()
        return self._unsat_count

    def recount_violations(self) -> int:
        assignment = self.problem.assignment
        region = self.problem.server_region
        unsatisfied = 0
        for key, members in self._group_members.items():
            if not any(assignment[r] != -1 and region[assignment[r]] == key[1]
                       for r in members):
                unsatisfied += 1
        return unsatisfied

    def violating_servers(self) -> List[int]:
        self._sync()
        counts: Dict[int, float] = {}
        for key in self._unsatisfied():
            weight = self._group_weight[key]
            for r in self._group_members[key]:
                server = self.problem.assignment[r]
                if server != -1:
                    counts[server] = counts.get(server, 0.0) + weight
        return [s for _cost, s in sorted(
            ((cost, s) for s, cost in counts.items()), reverse=True)]

    def move_delta(self, replica: int, src: int, dst: int) -> float:
        key = self._group_of.get(replica)
        if key is None or src == dst:
            return 0.0
        pref = key[1]
        region = self.problem.server_region
        src_in = src != -1 and region[src] == pref
        dst_in = region[dst] == pref
        if src_in == dst_in:
            return 0.0
        count = self._in_pref[key]
        weight = self._group_weight[key]
        if src_in:  # leaving the preferred region
            return weight if count == 1 else 0.0
        return -weight if count == 0 else 0.0  # entering it

    def on_move(self, replica: int, src: int, dst: int) -> None:
        if not self._note_move():
            return
        key = self._group_of.get(replica)
        if key is None:
            return
        pref = key[1]
        region = self.problem.server_region
        in_pref = self._in_pref
        if src != -1 and region[src] == pref:
            in_pref[key] -= 1
            if in_pref[key] == 0:
                self._unsat_count += 1
        if dst != -1 and region[dst] == pref:
            if in_pref[key] == 0:
                self._unsat_count -= 1
            in_pref[key] += 1

    def preferred_region_of(self, replica: int) -> int:
        """Used by the search's domain-knowledge sampling."""
        return self.pref_region[replica]

    def contributes(self, replica: int) -> bool:
        key = self._group_of.get(replica)
        if key is None:
            return False
        self._sync()
        return self._in_pref[key] == 0


class SpreadGoal(Goal):
    """Soft goal 2: spread each shard's replicas across fault domains.

    Cost for a (shard, domain) cell with k co-located replicas is k - 1;
    total cost is the number of "excess" co-located replicas.  A counts
    table makes deltas O(1), and a cached excess counter makes
    ``violations()`` O(1).
    """

    def __init__(self, problem: PlacementProblem, spec: ExclusionSpec) -> None:
        self.problem = problem
        self.scope = spec.scope
        self.name = f"spread[{spec.scope.value}]"
        self.priority = spec.priority
        self.weight = spec.weight
        self.domain_of_server = _domain_array(problem, spec.scope)
        self._counts: Dict[Tuple[int, int], int] = {}
        self._excess = 0
        self._synced_version = -1
        self.refresh()

    def refresh(self) -> None:
        self._counts.clear()
        for r, server in enumerate(self.problem.assignment):
            if server == -1:
                continue
            key = (self.problem.shard_of[r], self.domain_of_server[server])
            self._counts[key] = self._counts.get(key, 0) + 1
        self._excess = sum(count - 1 for count in self._counts.values()
                           if count > 1)
        self._synced_version = self.problem.version

    def _sync(self) -> None:
        if self._synced_version != self.problem.version:
            self.refresh()

    def total_cost(self) -> float:
        self._sync()
        return float(self._excess)

    def violations(self) -> int:
        self._sync()
        return self._excess

    def recount_violations(self) -> int:
        counts: Dict[Tuple[int, int], int] = {}
        for r, server in enumerate(self.problem.assignment):
            if server == -1:
                continue
            key = (self.problem.shard_of[r], self.domain_of_server[server])
            counts[key] = counts.get(key, 0) + 1
        return sum(count - 1 for count in counts.values() if count > 1)

    def violating_servers(self) -> List[int]:
        self._sync()
        servers = []
        seen = set()
        for r, server in enumerate(self.problem.assignment):
            if server == -1 or server in seen:
                continue
            key = (self.problem.shard_of[r], self.domain_of_server[server])
            if self._counts.get(key, 0) > 1:
                seen.add(server)
                servers.append(server)
        return servers

    def move_delta(self, replica: int, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        shard = self.problem.shard_of[replica]
        src_domain = self.domain_of_server[src] if src != -1 else None
        dst_domain = self.domain_of_server[dst]
        if src_domain == dst_domain:
            return 0.0
        delta = 0.0
        if src_domain is not None:
            if self._counts.get((shard, src_domain), 0) > 1:
                delta -= 1.0  # leaving a crowded domain removes one excess
        if self._counts.get((shard, dst_domain), 0) >= 1:
            delta += 1.0  # entering an occupied domain adds one excess
        return delta

    def on_move(self, replica: int, src: int, dst: int) -> None:
        if not self._note_move():
            return
        shard = self.problem.shard_of[replica]
        counts = self._counts
        if src != -1:
            key = (shard, self.domain_of_server[src])
            count = counts.get(key, 0)
            if count > 1:
                self._excess -= 1
            if count - 1 <= 0:
                counts.pop(key, None)
            else:
                counts[key] = count - 1
        if dst != -1:
            key = (shard, self.domain_of_server[dst])
            count = counts.get(key, 0)
            if count >= 1:
                self._excess += 1
            counts[key] = count + 1

    def crowded(self, replica: int) -> bool:
        server = self.problem.assignment[replica]
        if server == -1:
            return False
        self._sync()
        key = (self.problem.shard_of[replica], self.domain_of_server[server])
        return self._counts.get(key, 0) > 1

    def contributes(self, replica: int) -> bool:
        return self.crowded(replica)


class DrainGoal(_ServerCostGoal):
    """Soft goal 3: empty servers flagged as draining.

    Unlike the other per-server goals, ``violations()`` counts *replicas*
    still sitting on draining servers (not servers), so the goal keeps an
    integer sum alongside the shared cost cache.
    """

    def __init__(self, problem: PlacementProblem, spec: DrainSpec) -> None:
        self.problem = problem
        self.name = "maintenance-drain"
        self.priority = spec.priority
        self.weight = spec.weight
        self._init_incremental()

    def _cost_of(self, server: int) -> float:
        if self.problem.server_draining[server]:
            return float(len(self.problem.replicas_on[server]))
        return 0.0

    def _rebuild(self) -> None:
        super()._rebuild()
        self._viol_sum = int(sum(self._cost))

    def _cost_changed(self, server: int, old: float, new: float) -> None:
        self._viol_sum += int(new) - int(old)

    def violations(self) -> int:
        self._sync()
        return self._viol_sum

    def recount_violations(self) -> int:
        return int(sum(self._cost_of(s)
                       for s in range(len(self.problem.servers))))

    def move_delta(self, replica: int, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        draining = self.problem.server_draining
        before = 1.0 if (src != -1 and draining[src]) else 0.0
        after = 1.0 if draining[dst] else 0.0
        return after - before
